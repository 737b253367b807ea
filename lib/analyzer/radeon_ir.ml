(** IR mirror of the Radeon driver's ioctl handlers.

    This plays the role of the driver's C source for the analyzer
    (§4.1): each handler's memory-operation behaviour is expressed in
    {!Ir} statements.  The consistency tests execute the real driver
    ({!Devices.Radeon_drv}) with a recording [Uaccess] and check that
    the operations match what the analyzer derives from this IR — the
    analogue of validating the Clang tool against the running driver.

    Two versions are provided, mirroring the paper's study of Linux
    2.6.35 vs 3.2.0: the memory operations of common commands are
    identical; the newer version adds commands that simply need a
    fresh analyzer run. *)

open Ir

let r = Devices.Radeon_ioctl.gem_create (* shorthand forcing module link *)
let () = ignore r

let sz = Devices.Radeon_ioctl.gem_create_size

let gem_create_handler =
  {
    cmd = Devices.Radeon_ioctl.gem_create;
    handler_name = "radeon_gem_create_ioctl";
    body =
      [
        Copy_from_user { dst_buf = "req"; src = Arg; len = Const sz };
        Hw_op "allocate buffer object";
        Store_field
          { buf = "req"; offset = Const Devices.Radeon_ioctl.gem_create_off_handle;
            width = 4; value = Const 0 };
        Copy_to_user { dst = Arg; src_buf = "req"; len = Const sz };
      ];
  }

let gem_mmap_handler =
  {
    cmd = Devices.Radeon_ioctl.gem_mmap;
    handler_name = "radeon_gem_mmap_ioctl";
    body =
      [
        Copy_from_user
          { dst_buf = "req"; src = Arg; len = Const Devices.Radeon_ioctl.gem_mmap_size };
        Hw_op "install mmap cookie";
        Store_field
          { buf = "req"; offset = Const Devices.Radeon_ioctl.gem_mmap_off_addr;
            width = 8; value = Const 0 };
        Copy_to_user
          { dst = Arg; src_buf = "req"; len = Const Devices.Radeon_ioctl.gem_mmap_size };
      ];
  }

let gem_close_handler =
  {
    cmd = Devices.Radeon_ioctl.gem_close;
    handler_name = "drm_gem_close_ioctl";
    body =
      [
        Copy_from_user
          { dst_buf = "req"; src = Arg; len = Const Devices.Radeon_ioctl.gem_close_size };
        Hw_op "free buffer object";
      ];
  }

let gem_wait_idle_handler =
  {
    cmd = Devices.Radeon_ioctl.gem_wait_idle;
    handler_name = "radeon_gem_wait_idle_ioctl";
    body =
      [
        Copy_from_user
          { dst_buf = "req"; src = Arg;
            len = Const Devices.Radeon_ioctl.gem_wait_idle_size };
        Hw_op "wait for fence";
      ];
  }

let set_tiling_handler =
  {
    cmd = Devices.Radeon_ioctl.set_tiling;
    handler_name = "radeon_gem_set_tiling_ioctl";
    body =
      [
        Copy_from_user
          { dst_buf = "req"; src = Arg; len = Const Devices.Radeon_ioctl.set_tiling_size };
        Hw_op "program tiling registers";
        Copy_to_user
          { dst = Arg; src_buf = "req"; len = Const Devices.Radeon_ioctl.set_tiling_size };
      ];
  }

(** The nested-copy flagship: chunk pointers inside the copied struct,
    chunk headers behind those pointers, payloads behind the headers. *)
let cs_handler =
  {
    cmd = Devices.Radeon_ioctl.cs;
    handler_name = "radeon_cs_ioctl";
    body =
      [
        Copy_from_user
          { dst_buf = "cs"; src = Arg; len = Const Devices.Radeon_ioctl.cs_size };
        Let ("num_chunks",
             Field { buf = "cs"; offset = Const Devices.Radeon_ioctl.cs_off_num_chunks;
                     width = 4 });
        Let ("chunks_ptr",
             Field { buf = "cs"; offset = Const Devices.Radeon_ioctl.cs_off_chunks_ptr;
                     width = 8 });
        (* the handler's own validity test (num_chunks in [1,16]);
           wrapping only an Hw_op keeps the slice — and the extracted
           operation list — unchanged while the fact extraction
           recovers the range from the conditionals *)
        If { cond = Lt (Const 0, Var "num_chunks");
             then_ =
               [ If { cond = Lt (Var "num_chunks", Const 17);
                      then_ = [ Hw_op "chunk count validated" ]; else_ = [] } ];
             else_ = [] };
        Copy_from_user
          { dst_buf = "ptrs"; src = Var "chunks_ptr";
            len = Mul (Var "num_chunks", Const 8) };
        For
          {
            var = "i";
            count = Var "num_chunks";
            body =
              [
                Let ("hdr_ptr",
                     Field { buf = "ptrs"; offset = Mul (Var "i", Const 8); width = 8 });
                Copy_from_user
                  { dst_buf = "hdr"; src = Var "hdr_ptr";
                    len = Const Devices.Radeon_ioctl.cs_chunk_header_size };
                Let ("length_dw",
                     Field { buf = "hdr";
                             offset = Const Devices.Radeon_ioctl.chunk_off_length_dw;
                             width = 4 });
                Let ("data_ptr",
                     Field { buf = "hdr";
                             offset = Const Devices.Radeon_ioctl.chunk_off_data;
                             width = 8 });
                Copy_from_user
                  { dst_buf = "payload"; src = Var "data_ptr";
                    len = Mul (Var "length_dw", Const 4) };
                Hw_op "parse chunk";
              ];
          };
        Hw_op "submit to ring, emit fence";
        Store_field
          { buf = "cs"; offset = Const Devices.Radeon_ioctl.cs_off_fence; width = 8;
            value = Const 0 };
        Copy_to_user { dst = Arg; src_buf = "cs"; len = Const Devices.Radeon_ioctl.cs_size };
      ];
  }

(** The other nested shape: a result written through a pointer carried
    inside the copied request struct. *)
let info_handler =
  {
    cmd = Devices.Radeon_ioctl.info;
    handler_name = "radeon_info_ioctl";
    body =
      [
        Copy_from_user
          { dst_buf = "req"; src = Arg; len = Const Devices.Radeon_ioctl.info_size };
        Let ("value_ptr",
             Field { buf = "req"; offset = Const Devices.Radeon_ioctl.info_off_value_ptr;
                     width = 8 });
        Hw_op "look up requested value";
        Copy_to_user { dst = Var "value_ptr"; src_buf = "value"; len = Const 8 };
      ];
  }

(* N.B. info's Copy_to_user names a buffer ("value") never filled by a
   copy: the slicer keeps it as a needed input produced by driver
   computation, which is exactly how the real handler behaves. *)

let driver_2_6_35 =
  {
    driver_name = "radeon";
    version = "2.6.35";
    handlers =
      [ gem_create_handler; gem_mmap_handler; gem_close_handler; cs_handler; info_handler ];
  }

let driver_3_2_0 =
  {
    driver_name = "radeon";
    version = "3.2.0";
    handlers =
      [
        gem_create_handler; gem_mmap_handler; gem_close_handler; cs_handler;
        info_handler; gem_wait_idle_handler; set_tiling_handler;
      ];
  }
