(** IR mirror of the PCM playback handlers ({!Devices.Pcm_drv}).

    SET_RATE is the clean validated-scalar shape: both fields are
    range-checked before the codec is reprogrammed.  DRAIN performs no
    memory operation at all. *)

open Ir

let set_rate_handler =
  {
    cmd = Devices.Pcm_drv.set_rate_ioctl;
    handler_name = "pcm_set_rate";
    body =
      [
        Copy_from_user { dst_buf = "params"; src = Arg; len = Const 8 };
        Let ("rate", Field { buf = "params"; offset = Const 0; width = 4 });
        Let ("channels", Field { buf = "params"; offset = Const 4; width = 4 });
        If
          {
            cond = Lt (Const 7999, Var "rate");
            then_ =
              [
                If
                  {
                    cond = Lt (Var "rate", Const 192_001);
                    then_ =
                      [
                        If
                          {
                            cond = Lt (Const 0, Var "channels");
                            then_ =
                              [
                                If
                                  {
                                    cond = Lt (Var "channels", Const 9);
                                    then_ = [ Hw_op "program sample rate" ];
                                    else_ = [];
                                  };
                              ];
                            else_ = [];
                          };
                      ];
                    else_ = [];
                  };
              ];
            else_ = [];
          };
      ];
  }

let drain_handler =
  {
    cmd = Devices.Pcm_drv.drain_ioctl;
    handler_name = "pcm_drain";
    body = [ Hw_op "wait for ring drain" ];
  }

let driver =
  { driver_name = "pcm"; version = "3.2.0"; handlers = [ set_rate_handler; drain_handler ] }
