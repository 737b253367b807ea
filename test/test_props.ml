(* Cross-cutting property tests: invariants that tie layers together. *)

let prop_analyzer_offline_matches_runtime =
  (* For statically-classified handlers, executing the extracted slice
     at runtime must produce exactly the offline-resolved operations —
     the two §4.1 paths agree wherever both apply. *)
  QCheck.Test.make ~name:"static entries == runtime slice evaluation" ~count:200
    QCheck.(pair (int_bound 0xffffff) (int_range 1 4096))
    (fun (arg, size) ->
      let handler =
        {
          Analyzer.Ir.cmd = Oskit.Ioctl_num.iowr ~typ:'z' ~nr:7 ~size:(size land 0x3fff);
          handler_name = "synthetic";
          body =
            [
              Analyzer.Ir.Copy_from_user
                { dst_buf = "req"; src = Analyzer.Ir.Arg; len = Analyzer.Ir.Const size };
              Analyzer.Ir.Hw_op "work";
              Analyzer.Ir.Copy_to_user
                { dst = Analyzer.Ir.Add (Analyzer.Ir.Arg, Analyzer.Ir.Const 8);
                  src_buf = "req"; len = Analyzer.Ir.Const (size / 2) };
            ];
        }
      in
      let slice = Analyzer.Slice.of_handler handler in
      let offline =
        List.map (Analyzer.Extract.resolve_op ~arg) (Analyzer.Extract.offline_eval slice)
      in
      let runtime =
        Analyzer.Extract.runtime_eval slice ~arg ~read_user:(fun ~addr:_ ~len ->
            Bytes.create len)
      in
      offline = runtime)

let prop_grant_table_lifecycle =
  (* declare/release in random interleavings: the table never leaks
     slots, and after releasing everything it accepts a full-capacity
     group again. *)
  QCheck.Test.make ~name:"grant table never leaks slots" ~count:100
    QCheck.(list_of_size QCheck.Gen.(1 -- 30) (int_range 1 4))
    (fun group_sizes ->
      let phys = Memory.Phys_mem.create () in
      let hyp = Hypervisor.Hyp.create phys in
      let vm =
        Hypervisor.Hyp.create_vm hyp ~name:"g" ~kind:Hypervisor.Vm.Guest
          ~mem_bytes:(1024 * 1024)
      in
      let table = Hypervisor.Hyp.setup_grant_table hyp vm in
      let refs =
        List.map
          (fun n ->
            Hypervisor.Grant_table.declare table
              (List.init n (fun i ->
                   Hypervisor.Grant_table.Copy_to_user { addr = i * 64; len = 64 })))
          group_sizes
      in
      List.iter (Hypervisor.Grant_table.release table) refs;
      (* full capacity must be available again *)
      let big =
        List.init Hypervisor.Grant_table.capacity (fun i ->
            Hypervisor.Grant_table.Copy_from_user { addr = i; len = 1 })
      in
      let r = Hypervisor.Grant_table.declare table big in
      Hypervisor.Grant_table.release table r;
      true)

let prop_evdev_event_roundtrip =
  QCheck.Test.make ~name:"evdev events round-trip the wire format" ~count:300
    QCheck.(quad (int_bound 0xffffff) (int_bound 3) (int_bound 0xffff) (int_range (-128) 127))
    (fun (time, ty, code, value) ->
      let e =
        {
          Devices.Evdev.time_us = float_of_int time;
          ev_type = ty;
          code;
          value;
        }
      in
      let decoded = Devices.Evdev.decode_event (Devices.Evdev.encode_event e) 0 in
      decoded.Devices.Evdev.ev_type = ty
      && decoded.Devices.Evdev.code = code
      && decoded.Devices.Evdev.value = value)

let test_netmap_wire_time () =
  (* 64-byte frame + 20 bytes preamble/IFG at 1 Gb/s = 672 ns *)
  Alcotest.(check (float 1e-9)) "64B wire time" 0.672
    (Devices.Netmap_drv.wire_time_us ~len:64);
  (* 1.488 Mpps line rate falls out *)
  Alcotest.(check bool) "line rate ~1.488 Mpps" true
    (abs_float ((1. /. Devices.Netmap_drv.wire_time_us ~len:64) -. 1.488) < 0.001)

let test_engine_at_ordering () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng ~delay:5. (fun () -> log := "b" :: !log);
  Sim.Engine.at eng ~delay:1. (fun () -> log := "a" :: !log);
  Sim.Engine.at eng ~delay:5. (fun () -> log := "c" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "callbacks in time/insertion order" [ "a"; "b"; "c" ]
    (List.rev !log)

let prop_radix_set_perms_preserves_mapping =
  QCheck.Test.make ~name:"set_perms changes permissions, not targets" ~count:200
    QCheck.(list_of_size QCheck.Gen.(1 -- 20) (int_bound 5000))
    (fun vfns ->
      let t = Memory.Radix_table.create ~widths:[ 9; 9; 9 ] in
      List.iter
        (fun vfn -> Memory.Radix_table.map t ~vfn ~pfn:(vfn + 42) ~perms:Memory.Perm.rwx)
        vfns;
      List.iter
        (fun vfn -> Memory.Radix_table.set_perms t ~vfn ~perms:Memory.Perm.none)
        vfns;
      List.for_all
        (fun vfn ->
          match Memory.Radix_table.lookup t vfn with
          | Some leaf ->
              leaf.Memory.Radix_table.target_pfn = vfn + 42
              && Memory.Perm.equal leaf.Memory.Radix_table.perms Memory.Perm.none
          | None -> false)
        vfns)

let prop_allocator_range_disjoint =
  QCheck.Test.make ~name:"allocated ranges never overlap" ~count:100
    QCheck.(list_of_size QCheck.Gen.(1 -- 10) (int_range 1 8))
    (fun sizes ->
      let a = Memory.Allocator.create ~base:0 ~size:(1024 * Memory.Addr.page_size) in
      let ranges =
        List.map (fun n -> (Memory.Allocator.alloc_range a n, n)) sizes
      in
      let pages =
        List.concat_map
          (fun (base, n) -> List.init n (fun i -> Memory.Addr.pfn base + i))
          ranges
      in
      List.length pages = List.length (List.sort_uniq compare pages))

let prop_ioctl_num_roundtrip =
  QCheck.Test.make ~name:"_IOC fields round-trip" ~count:300
    QCheck.(quad (int_bound 3) (int_range 0 255) (int_range 0 255) (int_bound 16383))
    (fun (d, ty, nr, size) ->
      let dir = Oskit.Ioctl_num.(match d with 0 -> None_ | 1 -> Write | 2 -> Read | _ -> Read_write) in
      let cmd = Oskit.Ioctl_num.ioc ~dir ~typ:(Char.chr ty) ~nr ~size in
      Oskit.Ioctl_num.dir cmd = dir
      && Oskit.Ioctl_num.typ cmd = Char.chr ty
      && Oskit.Ioctl_num.nr cmd = nr
      && Oskit.Ioctl_num.size cmd = size)

let suites =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_analyzer_offline_matches_runtime;
        QCheck_alcotest.to_alcotest prop_grant_table_lifecycle;
        QCheck_alcotest.to_alcotest prop_evdev_event_roundtrip;
        QCheck_alcotest.to_alcotest prop_radix_set_perms_preserves_mapping;
        QCheck_alcotest.to_alcotest prop_allocator_range_disjoint;
        QCheck_alcotest.to_alcotest prop_ioctl_num_roundtrip;
        Alcotest.test_case "netmap wire time" `Quick test_netmap_wire_time;
        Alcotest.test_case "engine callback ordering" `Quick test_engine_at_ordering;
      ] );
  ]
