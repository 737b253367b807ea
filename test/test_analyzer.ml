(* Tests for the static ioctl analyzer: macro decoding, slicing,
   static/JIT classification, and — the crucial one — agreement between
   the IR-derived operation lists and what the real driver does. *)

open Analyzer
open Fixtures

let gt = Hypervisor.Grant_table.pp_op

let op_testable =
  Alcotest.testable gt (fun a b -> a = b)

let test_macro_decoding () =
  let cmd_w = Oskit.Ioctl_num.iow ~typ:'x' ~nr:1 ~size:32 in
  Alcotest.(check (list op_testable)) "W -> copy_from"
    [ Hypervisor.Grant_table.Copy_from_user { addr = 0x500; len = 32 } ]
    (Cmd_macro.ops_of_cmd cmd_w ~arg:0x500);
  let cmd_r = Oskit.Ioctl_num.ior ~typ:'x' ~nr:2 ~size:16 in
  Alcotest.(check (list op_testable)) "R -> copy_to"
    [ Hypervisor.Grant_table.Copy_to_user { addr = 0x500; len = 16 } ]
    (Cmd_macro.ops_of_cmd cmd_r ~arg:0x500);
  let cmd_wr = Oskit.Ioctl_num.iowr ~typ:'x' ~nr:3 ~size:24 in
  Alcotest.(check int) "WR -> both" 2 (List.length (Cmd_macro.ops_of_cmd cmd_wr ~arg:0));
  let cmd_none = Oskit.Ioctl_num.io ~typ:'x' ~nr:4 in
  Alcotest.(check (list op_testable)) "None -> nothing" []
    (Cmd_macro.ops_of_cmd cmd_none ~arg:0)

let test_ioctl_num_roundtrip () =
  let cmd = Oskit.Ioctl_num.iowr ~typ:'d' ~nr:0x26 ~size:24 in
  Alcotest.(check int) "size" 24 (Oskit.Ioctl_num.size cmd);
  Alcotest.(check int) "nr" 0x26 (Oskit.Ioctl_num.nr cmd);
  Alcotest.(check char) "type" 'd' (Oskit.Ioctl_num.typ cmd);
  Alcotest.(check bool) "dir" true (Oskit.Ioctl_num.dir cmd = Oskit.Ioctl_num.Read_write)

let test_slice_drops_hw_ops () =
  let slice = Slice.of_handler Radeon_ir.gem_create_handler in
  let has_hw =
    List.exists (function Ir.Hw_op _ -> true | _ -> false) slice
  in
  Alcotest.(check bool) "no hw ops in slice" false has_hw;
  Alcotest.(check bool) "both copies kept" true (Ir.stmt_count slice >= 2)

let test_classification () =
  let t = Extract.analyze Radeon_ir.driver_3_2_0 in
  Alcotest.(check int) "static handlers" 5 t.Extract.static_count;
  Alcotest.(check int) "jit handlers" 2 t.Extract.jit_count;
  let nested = Extract.nested_cmds t in
  Alcotest.(check (list int)) "cs and info are the nested commands"
    (List.sort compare [ Devices.Radeon_ioctl.cs; Devices.Radeon_ioctl.info ])
    nested;
  Alcotest.(check bool) "extracted code is nontrivial" true
    (t.Extract.extracted_lines > 10)

let test_static_entry_resolution () =
  let t = Extract.analyze Radeon_ir.driver_3_2_0 in
  let ops =
    Extract.ops_for t ~cmd:Devices.Radeon_ioctl.gem_create ~arg:0xBEEF000
      ~read_user:(fun ~addr:_ ~len:_ -> Alcotest.fail "static entry must not read memory")
  in
  Alcotest.(check (list op_testable)) "create ops arg-relative"
    [
      Hypervisor.Grant_table.Copy_from_user
        { addr = 0xBEEF000; len = Devices.Radeon_ioctl.gem_create_size };
      Hypervisor.Grant_table.Copy_to_user
        { addr = 0xBEEF000; len = Devices.Radeon_ioctl.gem_create_size };
    ]
    ops

let test_version_stability () =
  (* §4.1: common commands have identical memory operations across
     driver versions; the newer driver only adds commands. *)
  let old_t = Extract.analyze Radeon_ir.driver_2_6_35 in
  let new_t = Extract.analyze Radeon_ir.driver_3_2_0 in
  List.iter
    (fun (h : Ir.handler) ->
      match (Extract.entry_for old_t h.Ir.cmd, Extract.entry_for new_t h.Ir.cmd) with
      | Some (Extract.Static a), Some (Extract.Static b) ->
          Alcotest.(check bool) (h.Ir.handler_name ^ " static ops stable") true (a = b)
      | Some (Extract.Jit a), Some (Extract.Jit b) ->
          Alcotest.(check bool) (h.Ir.handler_name ^ " slices stable") true (a = b)
      | _ -> Alcotest.fail (h.Ir.handler_name ^ " classification changed"))
    Radeon_ir.driver_2_6_35.Ir.handlers;
  let added =
    List.filter
      (fun (h : Ir.handler) -> Ir.find_handler Radeon_ir.driver_2_6_35 h.Ir.cmd = None)
      Radeon_ir.driver_3_2_0.Ir.handlers
  in
  Alcotest.(check int) "new version adds commands" 2 (List.length added)

(* The consistency check: run the real driver on each ioctl while
   recording its memory operations, and compare with what the analyzer
   predicts from the IR (resolving JIT entries against the same process
   memory). *)

let normalize ops = List.sort compare ops

let recorded_to_ops recorded =
  List.filter_map
    (function
      | Oskit.Uaccess.Rec_copy_from { uaddr; len } ->
          Some (Hypervisor.Grant_table.Copy_from_user { addr = uaddr; len })
      | Oskit.Uaccess.Rec_copy_to { uaddr; len } ->
          Some (Hypervisor.Grant_table.Copy_to_user { addr = uaddr; len })
      | Oskit.Uaccess.Rec_insert_pfn _ -> None)
    recorded

let check_agreement name ~kernel ~task ~fd ~cmd ~arg =
  let table = Extract.analyze Radeon_ir.driver_3_2_0 in
  let recorded = ref [] in
  let result =
    Oskit.Uaccess.with_recorder
      (fun op -> recorded := op :: !recorded)
      (fun () -> Oskit.Vfs.ioctl kernel task fd ~cmd ~arg:(Int64.of_int arg))
  in
  (match result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: driver failed with %s" name (Oskit.Errno.to_string e));
  let actual = normalize (recorded_to_ops (List.rev !recorded)) in
  let predicted =
    normalize
      (Extract.ops_for table ~cmd ~arg ~read_user:(fun ~addr ~len ->
           Oskit.Task.read_mem task ~gva:addr ~len))
  in
  Alcotest.(check (list op_testable)) (name ^ ": analyzer matches driver") actual predicted

let test_driver_agreement_simple_cmds () =
  let m, _drv = gpu_machine () in
  run_in_process m.eng (fun () ->
      let task = Oskit.Kernel.spawn_task m.kernel ~name:"app" in
      let fd = ok (Oskit.Vfs.openf m.kernel task "/dev/dri/card0") in
      (* GEM_CREATE *)
      let arg = Oskit.Task.alloc_buf task 64 in
      put_u64 task ~gva:(arg + Devices.Radeon_ioctl.gem_create_off_size) 4096;
      put_u32 task ~gva:(arg + Devices.Radeon_ioctl.gem_create_off_domain)
        Devices.Radeon_ioctl.domain_gtt;
      check_agreement "gem_create" ~kernel:m.kernel ~task ~fd
        ~cmd:Devices.Radeon_ioctl.gem_create ~arg;
      (* SET_TILING *)
      let targ = Oskit.Task.alloc_buf task 16 in
      put_u32 task ~gva:targ 1;
      check_agreement "set_tiling" ~kernel:m.kernel ~task ~fd
        ~cmd:Devices.Radeon_ioctl.set_tiling ~arg:targ;
      (* INFO: nested write through value_ptr *)
      let value_buf = Oskit.Task.alloc_buf task 8 in
      let iarg = Oskit.Task.alloc_buf task Devices.Radeon_ioctl.info_size in
      put_u32 task ~gva:(iarg + Devices.Radeon_ioctl.info_off_request)
        Devices.Radeon_ioctl.info_device_id;
      put_u64 task ~gva:(iarg + Devices.Radeon_ioctl.info_off_value_ptr) value_buf;
      check_agreement "info" ~kernel:m.kernel ~task ~fd ~cmd:Devices.Radeon_ioctl.info
        ~arg:iarg)

let test_driver_agreement_cs () =
  (* The flagship: nested chunk copies, predicted just-in-time. *)
  let m, _drv = gpu_machine () in
  run_in_process m.eng (fun () ->
      let task = Oskit.Kernel.spawn_task m.kernel ~name:"app" in
      let fd = ok (Oskit.Vfs.openf m.kernel task "/dev/dri/card0") in
      let tex =
        gem_create m.kernel task fd ~size:4096 ~domain:Devices.Radeon_ioctl.domain_gtt
      in
      (* hand-build the CS argument the way fixtures.submit_cs does,
         but keep the arg address so we can analyze the same call *)
      let ib_words = [ Devices.Radeon_ioctl.pkt_draw; 100; 640; 480; 1; 0 ] in
      let ib_buf = Oskit.Task.alloc_buf task 64 in
      List.iteri (fun i w -> put_u32 task ~gva:(ib_buf + (i * 4)) w) ib_words;
      let reloc_buf = Oskit.Task.alloc_buf task 8 in
      put_u32 task ~gva:reloc_buf tex;
      let hdr_ib = Oskit.Task.alloc_buf task 16 in
      put_u32 task ~gva:hdr_ib Devices.Radeon_ioctl.chunk_id_ib;
      put_u32 task ~gva:(hdr_ib + 4) (List.length ib_words);
      put_u64 task ~gva:(hdr_ib + 8) ib_buf;
      let hdr_re = Oskit.Task.alloc_buf task 16 in
      put_u32 task ~gva:hdr_re Devices.Radeon_ioctl.chunk_id_relocs;
      put_u32 task ~gva:(hdr_re + 4) 1;
      put_u64 task ~gva:(hdr_re + 8) reloc_buf;
      let ptrs = Oskit.Task.alloc_buf task 16 in
      put_u64 task ~gva:ptrs hdr_ib;
      put_u64 task ~gva:(ptrs + 8) hdr_re;
      let arg = Oskit.Task.alloc_buf task Devices.Radeon_ioctl.cs_size in
      put_u32 task ~gva:(arg + Devices.Radeon_ioctl.cs_off_num_chunks) 2;
      put_u64 task ~gva:(arg + Devices.Radeon_ioctl.cs_off_chunks_ptr) ptrs;
      check_agreement "cs" ~kernel:m.kernel ~task ~fd ~cmd:Devices.Radeon_ioctl.cs ~arg;
      wait_idle m.kernel task fd)

let test_jit_rejects_garbage () =
  (* A malicious/buggy app passing a huge chunk count must be rejected
     by the JIT evaluator rather than producing unbounded declarations. *)
  let table = Extract.analyze Radeon_ir.driver_3_2_0 in
  let fake_mem = Bytes.make 4096 '\000' in
  Bytes.set_int32_le fake_mem 0 (Int32.of_int 1_000_000) (* num_chunks *);
  Alcotest.(check bool) "unbounded loop rejected" true
    (match
       Extract.ops_for table ~cmd:Devices.Radeon_ioctl.cs ~arg:0
         ~read_user:(fun ~addr ~len ->
           if addr + len <= 4096 then Bytes.sub fake_mem addr len
           else Bytes.make len '\000')
     with
    | _ -> false
    | exception Oskit.Errno.Unix_error (Oskit.Errno.EINVAL, _) -> true)

let prop_macro_cmds_static =
  QCheck.Test.make ~name:"macro-built commands always classify static" ~count:200
    QCheck.(pair (int_range 1 4095) (int_range 0 255))
    (fun (size, nr) ->
      let cmd = Oskit.Ioctl_num.iowr ~typ:'q' ~nr ~size in
      let handler =
        {
          Ir.cmd;
          handler_name = "synthetic";
          body =
            [
              Ir.Copy_from_user { dst_buf = "b"; src = Ir.Arg; len = Ir.Const size };
              Ir.Hw_op "work";
              Ir.Copy_to_user { dst = Ir.Arg; src_buf = "b"; len = Ir.Const size };
            ];
        }
      in
      let d = { Ir.driver_name = "syn"; version = "1"; handlers = [ handler ] } in
      let t = Extract.analyze d in
      t.Extract.static_count = 1
      &&
      let ops = Extract.ops_for t ~cmd ~arg:0x1234 ~read_user:(fun ~addr:_ ~len -> Bytes.create len) in
      ops = Cmd_macro.ops_of_cmd cmd ~arg:0x1234)

let suites =
  [
    ( "analyzer",
      [
        Alcotest.test_case "macro decoding" `Quick test_macro_decoding;
        Alcotest.test_case "ioctl number round trip" `Quick test_ioctl_num_roundtrip;
        Alcotest.test_case "slice drops hw ops" `Quick test_slice_drops_hw_ops;
        Alcotest.test_case "static/jit classification" `Quick test_classification;
        Alcotest.test_case "static entry resolution" `Quick test_static_entry_resolution;
        Alcotest.test_case "version stability" `Quick test_version_stability;
        Alcotest.test_case "agreement: simple + info" `Quick test_driver_agreement_simple_cmds;
        Alcotest.test_case "agreement: nested cs" `Quick test_driver_agreement_cs;
        Alcotest.test_case "jit rejects garbage" `Quick test_jit_rejects_garbage;
        QCheck_alcotest.to_alcotest prop_macro_cmds_static;
      ] );
  ]
