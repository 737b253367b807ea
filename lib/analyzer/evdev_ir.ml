(** IR mirror of the evdev ioctl handlers ({!Devices.Evdev}).

    The identity and autorepeat reads are pure copy-outs; EVIOCSREP
    range-checks both fields before programming the device; EVIOCGRAB
    takes a {e value} argument (no memory operation at all) — between
    them the input class covers the static, validated-scalar and
    no-copy shapes of the fact extraction. *)

open Ir

let eviocgid_handler =
  {
    cmd = Devices.Evdev.eviocgid;
    handler_name = "evdev_ioctl_gid";
    body =
      [
        Hw_op "read device identity";
        (* "id" is produced by the driver, not by a copy — the slicer
           keeps it as a needed input, like radeon's "value" *)
        Copy_to_user { dst = Arg; src_buf = "id"; len = Const 8 };
      ];
  }

let eviocgrep_handler =
  {
    cmd = Devices.Evdev.eviocgrep;
    handler_name = "evdev_ioctl_grep";
    body =
      [
        Hw_op "read autorepeat parameters";
        Copy_to_user { dst = Arg; src_buf = "rep"; len = Const 8 };
      ];
  }

let eviocsrep_handler =
  {
    cmd = Devices.Evdev.eviocsrep;
    handler_name = "evdev_ioctl_srep";
    body =
      [
        Copy_from_user { dst_buf = "rep"; src = Arg; len = Const 8 };
        Let ("delay", Field { buf = "rep"; offset = Const 0; width = 4 });
        Let ("period", Field { buf = "rep"; offset = Const 4; width = 4 });
        If
          {
            cond = Lt (Var "delay", Const (Devices.Evdev.rep_delay_max + 1));
            then_ =
              [
                If
                  {
                    cond = Lt (Const 0, Var "period");
                    then_ =
                      [
                        If
                          {
                            cond =
                              Lt (Var "period", Const (Devices.Evdev.rep_period_max + 1));
                            then_ = [ Hw_op "program autorepeat" ];
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

let eviocgrab_handler =
  {
    cmd = Devices.Evdev.eviocgrab;
    handler_name = "evdev_ioctl_grab";
    body =
      [
        (* the argument is a value, not a pointer: no memory operation *)
        If
          {
            cond = Ne (Arg, Const 0);
            then_ = [ Hw_op "grab device" ];
            else_ = [ Hw_op "release grab" ];
          };
      ];
  }

let driver =
  {
    driver_name = "evdev";
    version = "3.2.0";
    handlers =
      [ eviocgid_handler; eviocgrep_handler; eviocsrep_handler; eviocgrab_handler ];
  }
