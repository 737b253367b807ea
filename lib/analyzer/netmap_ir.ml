(** IR mirror of the netmap control handlers ({!Devices.Netmap_drv}).

    REGIF pins its ringid to the single TX ring (an equality
    constraint, the tightest range the extraction recovers) and writes
    the ring geometry back; TXSYNC is a pure doorbell.  The data path
    (cur/tail in the shared ring header) is mmap'd memory, outside the
    ioctl interface. *)

open Ir

let regif_handler =
  {
    cmd = Devices.Netmap_drv.nioc_regif;
    handler_name = "netmap_regif";
    body =
      [
        Copy_from_user { dst_buf = "req"; src = Arg; len = Const 16 };
        Let ("ringid", Field { buf = "req"; offset = Const 0; width = 4 });
        If
          {
            cond = Eq (Var "ringid", Const 0);
            then_ =
              [
                Hw_op "report ring geometry";
                Store_field { buf = "req"; offset = Const 4; width = 4; value = Const 0 };
                Store_field { buf = "req"; offset = Const 8; width = 4; value = Const 0 };
                Copy_to_user { dst = Arg; src_buf = "req"; len = Const 16 };
              ];
            else_ = [];
          };
      ];
  }

let txsync_handler =
  {
    cmd = Devices.Netmap_drv.nioc_txsync;
    handler_name = "netmap_txsync";
    body = [ Hw_op "kick NIC TX" ];
  }

let driver =
  { driver_name = "netmap"; version = "3.2.0"; handlers = [ regif_handler; txsync_handler ] }
