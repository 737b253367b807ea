(** IR mirror of the V4L2 streaming handlers ({!Devices.V4l2_drv}).

    REQBUFS carries the class's length-style field (count sizes the
    frame-buffer table and bounds the allocation loop); QBUF carries
    the index-style field (index selects a buffer-table entry); S_FMT
    carries two range-checked scalars.  Device-state preconditions
    (EBUSY while streaming) are runtime state, not argument shape, and
    stay in the driver. *)

open Ir

let max_buffers = 32

let reqbufs_handler =
  {
    cmd = Devices.V4l2_drv.vidioc_reqbufs;
    handler_name = "vidioc_reqbufs";
    body =
      [
        Copy_from_user { dst_buf = "req"; src = Arg; len = Const 8 };
        Let ("count", Field { buf = "req"; offset = Const 0; width = 4 });
        If
          {
            cond = Lt (Const 0, Var "count");
            then_ =
              [
                If
                  {
                    cond = Lt (Var "count", Const (max_buffers + 1));
                    then_ =
                      [
                        For
                          {
                            var = "i";
                            count = Var "count";
                            body = [ Hw_op "allocate frame buffer" ];
                          };
                        Copy_to_user { dst = Arg; src_buf = "req"; len = Const 8 };
                      ];
                    else_ = [];
                  };
              ];
            else_ = [];
          };
      ];
  }

let querybuf_handler =
  {
    cmd = Devices.V4l2_drv.vidioc_querybuf;
    handler_name = "vidioc_querybuf";
    body =
      [
        Copy_from_user { dst_buf = "req"; src = Arg; len = Const 16 };
        Let ("index", Field { buf = "req"; offset = Const 0; width = 4 });
        If
          {
            cond = Lt (Var "index", Const max_buffers);
            then_ =
              [
                Hw_op "compute mmap cookie";
                Store_field
                  {
                    buf = "req";
                    offset = Const 8;
                    width = 8;
                    value = Mul (Var "index", Const (256 * 4096));
                  };
                Copy_to_user { dst = Arg; src_buf = "req"; len = Const 16 };
              ];
            else_ = [];
          };
      ];
  }

let qbuf_handler =
  {
    cmd = Devices.V4l2_drv.vidioc_qbuf;
    handler_name = "vidioc_qbuf";
    body =
      [
        Copy_from_user { dst_buf = "req"; src = Arg; len = Const 8 };
        Let ("index", Field { buf = "req"; offset = Const 0; width = 4 });
        If
          {
            cond = Lt (Var "index", Const max_buffers);
            then_ =
              [
                (* index selects the buffer-table entry to queue *)
                Let
                  ( "slot",
                    Field
                      {
                        buf = "buffer_table";
                        offset = Mul (Var "index", Const 8);
                        width = 8;
                      } );
                Hw_op "queue buffer for sensor";
              ];
            else_ = [];
          };
      ];
  }

let dqbuf_handler =
  {
    cmd = Devices.V4l2_drv.vidioc_dqbuf;
    handler_name = "vidioc_dqbuf";
    body =
      [
        Copy_from_user { dst_buf = "req"; src = Arg; len = Const 8 };
        Let ("index", Field { buf = "req"; offset = Const 0; width = 4 });
        If
          {
            cond = Lt (Var "index", Const max_buffers);
            then_ =
              [
                Hw_op "wait for a filled frame";
                Store_field { buf = "req"; offset = Const 0; width = 4; value = Const 0 };
                Copy_to_user { dst = Arg; src_buf = "req"; len = Const 8 };
              ];
            else_ = [];
          };
      ];
  }

let streamon_handler =
  {
    cmd = Devices.V4l2_drv.vidioc_streamon;
    handler_name = "vidioc_streamon";
    body = [ Hw_op "start sensor" ];
  }

let streamoff_handler =
  {
    cmd = Devices.V4l2_drv.vidioc_streamoff;
    handler_name = "vidioc_streamoff";
    body = [ Hw_op "stop sensor" ];
  }

let s_fmt_handler =
  {
    cmd = Devices.V4l2_drv.vidioc_s_fmt;
    handler_name = "vidioc_s_fmt";
    body =
      [
        Copy_from_user { dst_buf = "fmt"; src = Arg; len = Const 8 };
        Let ("width", Field { buf = "fmt"; offset = Const 0; width = 4 });
        Let ("height", Field { buf = "fmt"; offset = Const 4; width = 4 });
        If
          {
            cond = Lt (Const 0, Var "width");
            then_ =
              [
                If
                  {
                    cond = Lt (Var "width", Const 4097);
                    then_ =
                      [
                        If
                          {
                            cond = Lt (Const 0, Var "height");
                            then_ =
                              [
                                If
                                  {
                                    cond = Lt (Var "height", Const 4097);
                                    then_ =
                                      [
                                        Hw_op "set sensor format";
                                        Copy_to_user
                                          { dst = Arg; src_buf = "fmt"; len = Const 8 };
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
            else_ = [];
          };
      ];
  }

let driver =
  {
    driver_name = "v4l2";
    version = "3.2.0";
    handlers =
      [
        reqbufs_handler; querybuf_handler; qbuf_handler; dqbuf_handler;
        streamon_handler; streamoff_handler; s_fmt_handler;
      ];
  }
