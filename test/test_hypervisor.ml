(* Tests for the hypervisor: VM creation, shared pages, interrupts,
   grant tables, the memory-operation API and protected regions. *)

open Hypervisor

let mib = 1024 * 1024

let make_hyp () =
  let phys = Memory.Phys_mem.create () in
  Hyp.create phys

let make_guest_with_process hyp =
  let guest = Hyp.create_vm hyp ~name:"guest" ~kind:Vm.Guest ~mem_bytes:(4 * mib) in
  let pt = Memory.Guest_pt.create () in
  (* give the process a few pages of mapped memory at 0x1000 *)
  for i = 0 to 7 do
    let gpa = Vm.alloc_gpa_page guest in
    Memory.Guest_pt.map pt
      ~gva:(0x1000 + (i * Memory.Addr.page_size))
      ~gpa ~perms:Memory.Perm.rw
  done;
  (guest, pt)

let test_create_vm_ram () =
  let hyp = make_hyp () in
  let vm = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  Vm.write vm ~pt:Vm.no_pt ~addr:0x1234 (Bytes.of_string "data");
  Alcotest.(check string) "gpa round trip" "data"
    (Bytes.to_string (Vm.read vm ~pt:Vm.no_pt ~addr:0x1234 ~len:4));
  Alcotest.(check bool) "beyond RAM faults" true
    (match Vm.read vm ~pt:Vm.no_pt ~addr:(2 * mib) ~len:1 with
    | _ -> false
    | exception Memory.Fault.Ept_violation _ -> true)

(* A VM's mapping table is made on its first map: on a VM that never
   registered a process or mapped a page, every lookup reads "none" and
   allocates nothing. *)
let test_unused_vm_lookups () =
  let hyp = make_hyp () in
  let vm = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let pt = Memory.Guest_pt.create () in
  let n = 1000 and answers = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Hyp.find_process_pt hyp vm ~pid:1 <> None then incr answers;
    if Hyp.mapped_via_hypervisor hyp ~target:vm ~pt ~gva:0x1000 then incr answers;
    answers := !answers + Hyp.teardown_vm_mappings hyp ~target:vm
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every lookup reads none" 0 !answers;
  if words >= float_of_int n then
    Alcotest.failf "%d rounds of lookups allocated %.0f words" n words

let test_vm_isolated_ram () =
  let hyp = make_hyp () in
  let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
  let b = Hyp.create_vm hyp ~name:"b" ~kind:Vm.Guest ~mem_bytes:mib in
  Vm.write a ~pt:Vm.no_pt ~addr:0 (Bytes.of_string "AAAA");
  Vm.write b ~pt:Vm.no_pt ~addr:0 (Bytes.of_string "BBBB");
  let read vm = Bytes.to_string (Vm.read vm ~pt:Vm.no_pt ~addr:0 ~len:4) in
  Alcotest.(check string) "a unchanged" "AAAA" (read a);
  Alcotest.(check string) "b unchanged" "BBBB" (read b)

let test_gva_access () =
  let hyp = make_hyp () in
  let guest, pt = make_guest_with_process hyp in
  Vm.write guest ~pt ~addr:0x1ffe (Bytes.of_string "cross-page payload");
  Alcotest.(check string) "gva round trip across pages" "cross-page payload"
    (Bytes.to_string (Vm.read guest ~pt ~addr:0x1ffe ~len:18));
  Vm.write_u32 guest ~pt ~addr:0x3000 0xcafe;
  Alcotest.(check int) "u32 via gva" 0xcafe (Vm.read_u32 guest ~pt ~addr:0x3000)

let test_shared_page_two_vms () =
  let hyp = make_hyp () in
  let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
  let b = Hyp.create_vm hyp ~name:"b" ~kind:Vm.Driver ~mem_bytes:mib in
  let page = Shared_page.allocate (Hyp.phys hyp) in
  let (_ : int) = Shared_page.map_into page a ~perms:Memory.Perm.rw in
  let (_ : int) = Shared_page.map_into page b ~perms:Memory.Perm.rw in
  let va = Shared_page.view_of page a and vb = Shared_page.view_of page b in
  va.Shared_page.write_u32 ~offset:16 77;
  Alcotest.(check int) "b sees a's write" 77 (vb.Shared_page.read_u32 ~offset:16);
  vb.Shared_page.write ~offset:100 (Bytes.of_string "pong");
  let got = Bytes.make 6 '.' in
  va.Shared_page.read_into ~offset:100 ~len:4 got;
  Alcotest.(check string) "a sees b's write, at the start of its buffer" "pong.."
    (Bytes.to_string got)

let test_shared_page_respects_ept_perms () =
  let hyp = make_hyp () in
  let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
  let page = Shared_page.allocate (Hyp.phys hyp) in
  let gpa = Shared_page.map_into page a ~perms:Memory.Perm.r in
  let va = Shared_page.view_of page a in
  va.Shared_page.read_into ~offset:0 ~len:4 (Bytes.create 4);
  Alcotest.(check bool) "write through read-only mapping faults" true
    (match va.Shared_page.write ~offset:0 (Bytes.of_string "x") with
    | () -> false
    | exception Memory.Fault.Ept_violation info ->
        info.Memory.Fault.addr = gpa && info.Memory.Fault.access = Memory.Perm.Write)

(* A frame no one has written reads as the shared zero page, which a
   view must never hold: the first write, by either VM, gives the frame
   its own bytes, and the other VM's next read must see them. *)
let test_shared_page_zero_page_not_held () =
  let round ~writer_is_a =
    let hyp = make_hyp () in
    let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
    let b = Hyp.create_vm hyp ~name:"b" ~kind:Vm.Driver ~mem_bytes:mib in
    let page = Shared_page.allocate (Hyp.phys hyp) in
    let (_ : int) = Shared_page.map_into page a ~perms:Memory.Perm.rw in
    let (_ : int) = Shared_page.map_into page b ~perms:Memory.Perm.rw in
    let va = Shared_page.view_of page a and vb = Shared_page.view_of page b in
    let who = if writer_is_a then "a" else "b" in
    Alcotest.(check int) (who ^ " writes: a reads an untouched word as 0") 0
      (va.Shared_page.read_u32 ~offset:64);
    (if writer_is_a then va else vb).Shared_page.write_u32 ~offset:64 0xbeef;
    Alcotest.(check int) (who ^ " writes: a reads the new value") 0xbeef
      (va.Shared_page.read_u32 ~offset:64);
    Alcotest.(check int) (who ^ " writes: b reads the new value") 0xbeef
      (vb.Shared_page.read_u32 ~offset:64)
  in
  round ~writer_is_a:false;
  round ~writer_is_a:true

(* ---- grant tables ---- *)

let test_grant_declare_lookup () =
  let hyp = make_hyp () in
  let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let table = Hyp.setup_grant_table hyp guest in
  let ops =
    [
      Grant_table.Copy_from_user { addr = 0x1000; len = 64 };
      Grant_table.Copy_to_user { addr = 0x2000; len = 128 };
    ]
  in
  let r = Grant_table.declare table ops in
  Alcotest.(check bool) "group read back" true (Grant_table.snapshot table = [ (r, ops) ]);
  Alcotest.(check bool) "exact op authorised" true
    (Grant_table.authorises table ~grant_ref:r
       ~requested:(Grant_table.Copy_from_user { addr = 0x1000; len = 64 }));
  Alcotest.(check bool) "sub-range authorised" true
    (Grant_table.authorises table ~grant_ref:r
       ~requested:(Grant_table.Copy_to_user { addr = 0x2010; len = 8 }));
  Alcotest.(check bool) "overrun rejected" false
    (Grant_table.authorises table ~grant_ref:r
       ~requested:(Grant_table.Copy_from_user { addr = 0x1000; len = 65 }));
  Alcotest.(check bool) "wrong direction rejected" false
    (Grant_table.authorises table ~grant_ref:r
       ~requested:(Grant_table.Copy_to_user { addr = 0x1000; len = 64 }))

let test_grant_release_reuse () =
  let hyp = make_hyp () in
  let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let table = Hyp.setup_grant_table hyp guest in
  let r1 = Grant_table.declare table [ Grant_table.Copy_to_user { addr = 0; len = 8 } ] in
  Grant_table.release table r1;
  let r2 = Grant_table.declare table [ Grant_table.Copy_to_user { addr = 8; len = 8 } ] in
  Alcotest.(check int) "slot reused after release" r1 r2;
  Alcotest.(check bool) "old grant no longer authorises" false
    (Grant_table.authorises table ~grant_ref:r1
       ~requested:(Grant_table.Copy_to_user { addr = 0; len = 8 }))

let test_grant_table_full () =
  let hyp = make_hyp () in
  let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let table = Hyp.setup_grant_table hyp guest in
  Alcotest.check_raises "capacity enforced" Grant_table.Table_full (fun () ->
      for i = 0 to Grant_table.capacity do
        ignore
          (Grant_table.declare table
             [ Grant_table.Copy_to_user { addr = i * 16; len = 16 } ])
      done)

(* One group declares copy_to_user [0x1000, 0x1100).  Each request
   below ends past it, and its [addr + len] overflows an [int]: a check
   that sums the ends wraps to a negative end and accepts. *)
let test_grant_overflowing_requests_refused () =
  let hyp = make_hyp () in
  let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let table = Hyp.setup_grant_table hyp guest in
  let r =
    Grant_table.declare table [ Grant_table.Copy_to_user { addr = 0x1000; len = 0x100 } ]
  in
  let authorised addr len =
    Grant_table.authorises table ~grant_ref:r
      ~requested:(Grant_table.Copy_to_user { addr; len })
  in
  Alcotest.(check bool) "the declared range authorised" true (authorised 0x1000 0x100);
  List.iter
    (fun (addr, len) ->
      Alcotest.(check bool) (Printf.sprintf "(0x%x, %d) refused" addr len) false
        (authorised addr len))
    [ (0x2000, max_int); (max_int - 50, 100); (max_int, 1) ]

(* ---- memory-operation API ---- *)

let driver_and_guest () =
  let hyp = make_hyp () in
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(4 * mib) in
  let guest, pt = make_guest_with_process hyp in
  let table = Hyp.setup_grant_table hyp guest in
  (hyp, driver, guest, pt, table)

let test_copy_roundtrip_via_api () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  Vm.write guest ~pt ~addr:0x1100 (Bytes.of_string "app->driver");
  let r =
    Grant_table.declare table
      [
        Grant_table.Copy_from_user { addr = 0x1100; len = 11 };
        Grant_table.Copy_to_user { addr = 0x2100; len = 11 };
      ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let data = Hyp.copy_from_process hyp req ~gva:0x1100 ~len:11 in
  Alcotest.(check string) "driver read app buffer" "app->driver" (Bytes.to_string data);
  Hyp.copy_to_process hyp req ~gva:0x2100 ~data:(Bytes.of_string "driver->app");
  Alcotest.(check string) "app sees driver reply" "driver->app"
    (Bytes.to_string (Vm.read guest ~pt ~addr:0x2100 ~len:11))

let test_undeclared_copy_rejected () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 16 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let rejected_before = (Hyp.audit hyp).Audit.grants_rejected in
  Alcotest.(check bool) "copy outside declaration rejected" true
    (match Hyp.copy_to_process hyp req ~gva:0x1000 ~data:(Bytes.make 16 'x') with
    | () -> false
    | exception Hyp.Rejected _ -> true);
  Alcotest.(check int) "rejection audited" (rejected_before + 1)
    (Hyp.audit hyp).Audit.grants_rejected

let test_attack_copy_to_guest_kernel () =
  (* The §4.1 attack: a compromised driver VM asks the hypervisor to
     write into a sensitive guest address never declared by the
     frontend. *)
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_to_user { addr = 0x2000; len = 64 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  Alcotest.(check bool) "write to guest kernel address blocked" true
    (match
       Hyp.copy_to_process hyp req ~gva:0xC0000000 ~data:(Bytes.make 8 '\xcc')
     with
    | () -> false
    | exception Hyp.Rejected _ -> true)

(* The overflowing request as a copy: refused by the grant check before
   any guest memory is touched, and charged to the guest's table. *)
let test_overflowing_copy_touches_nothing () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_to_user { addr = 0x1000; len = 0x100 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let before = Vm.read guest ~pt ~addr:0x2000 ~len:8192 in
  Alcotest.(check bool) "copy of max_int bytes refused" true
    (match
       Hyp.copy_to_process_from hyp req ~gva:0x2000 ~src:(Bytes.make 8192 'X') ~src_off:0
         ~len:max_int
     with
    | () -> false
    | exception Hyp.Rejected _ -> true);
  Alcotest.(check string) "undeclared guest memory unchanged" (Bytes.to_string before)
    (Bytes.to_string (Vm.read guest ~pt ~addr:0x2000 ~len:8192));
  Alcotest.(check int) "one grant violation" 1 (Grant_table.violations table)

(* A granted copy whose own buffer is shorter than [len] is refused
   whole, before its first page moves. *)
let test_malformed_copy_touches_nothing () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let len = 2 * Memory.Addr.page_size in
  let r =
    Grant_table.declare table
      [
        Grant_table.Copy_to_user { addr = 0x1000; len };
        Grant_table.Copy_from_user { addr = 0x1000; len };
      ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let before = Vm.read guest ~pt ~addr:0x1000 ~len in
  let invalid f = match f () with () -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "short source refused" true
    (invalid (fun () ->
         Hyp.copy_to_process_from hyp req ~gva:0x1000
           ~src:(Bytes.make Memory.Addr.page_size 'X')
           ~src_off:0 ~len));
  Alcotest.(check string) "guest memory unchanged" (Bytes.to_string before)
    (Bytes.to_string (Vm.read guest ~pt ~addr:0x1000 ~len));
  let dst = Bytes.make len '.' in
  Alcotest.(check bool) "destination range past its end refused" true
    (invalid (fun () -> Hyp.copy_from_process_into hyp req ~gva:0x1000 ~dst ~dst_off:1 ~len));
  Alcotest.(check string) "destination unchanged" (String.make len '.') (Bytes.to_string dst)

let test_guest_cannot_call_api () =
  let hyp, _driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 4 } ]
  in
  let req = { Hyp.caller = guest; target = guest; pt; grant_ref = r } in
  Alcotest.(check bool) "non-driver caller refused" true
    (match Hyp.copy_from_process hyp req ~gva:0x1000 ~len:4 with
    | _ -> false
    | exception Hyp.Rejected _ -> true)

let test_map_page_into_process () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  (* a "device" page the driver wants to expose to the app *)
  let dev_spn = Memory.Phys_mem.alloc_frame (Hyp.phys hyp) in
  Memory.Phys_mem.write (Hyp.phys hyp) ~spa:(Memory.Addr.of_pfn dev_spn)
    (Bytes.of_string "framebuffer!");
  let gva = 0x40000000 in
  let r =
    Grant_table.declare table
      [ Grant_table.Map_page { addr = gva; len = Memory.Addr.page_size } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  (* frontend prepares intermediate levels first (§5.2) *)
  Memory.Guest_pt.prepare_range pt ~gva ~len:Memory.Addr.page_size;
  Hyp.map_page_into_process hyp req ~gva ~spa:(Memory.Addr.of_pfn dev_spn)
    ~perms:Memory.Perm.rw;
  Alcotest.(check string) "app reads device page through its va" "framebuffer!"
    (Bytes.to_string (Vm.read guest ~pt ~addr:gva ~len:12));
  Vm.write guest ~pt ~addr:(gva + 100) (Bytes.of_string "app-write");
  Alcotest.(check string) "app writes reach the device page" "app-write"
    (Bytes.to_string
       (Memory.Phys_mem.read (Hyp.phys hyp)
          ~spa:(Memory.Addr.of_pfn dev_spn + 100)
          ~len:9));
  Alcotest.(check bool) "registry knows the mapping" true
    (Hyp.mapped_via_hypervisor hyp ~target:guest ~pt ~gva);
  Hyp.unmap_page_from_process hyp req ~gva;
  Alcotest.(check (option int)) "va no longer translates" None
    (Memory.Guest_pt.translate_opt pt ~gva ~access:Memory.Perm.Read)

let test_map_page_requires_prepared_levels () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x50000000 in
  let r =
    Grant_table.declare table
      [ Grant_table.Map_page { addr = gva; len = Memory.Addr.page_size } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  Alcotest.(check bool) "unprepared levels rejected" true
    (match Hyp.map_page_into_process hyp req ~gva ~spa:0x1000 ~perms:Memory.Perm.rw with
    | () -> false
    | exception Hyp.Rejected _ -> true)

let test_map_page_undeclared_gva_rejected () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table
      [ Grant_table.Map_page { addr = 0x40000000; len = Memory.Addr.page_size } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let gva = 0x60000000 in
  Memory.Guest_pt.prepare_range pt ~gva ~len:Memory.Addr.page_size;
  Alcotest.(check bool) "mapping at undeclared gva rejected" true
    (match Hyp.map_page_into_process hyp req ~gva ~spa:0x1000 ~perms:Memory.Perm.rw with
    | () -> false
    | exception Hyp.Rejected _ -> true)

(* ---- protected regions ---- *)

let region_fixture () =
  let hyp = make_hyp () in
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(8 * mib) in
  let g1 = Hyp.create_vm hyp ~name:"g1" ~kind:Vm.Guest ~mem_bytes:mib in
  let g2 = Hyp.create_vm hyp ~name:"g2" ~kind:Vm.Guest ~mem_bytes:mib in
  let iommu = Memory.Iommu.create () in
  (* the driver donates pool pages out of its own RAM during init *)
  let donate n =
    List.init n (fun _ ->
        let gpa = Vm.alloc_gpa_page driver in
        match Memory.Ept.lookup (Vm.ept driver) ~gpa with
        | Some (spa, _) -> Memory.Addr.pfn spa
        | None -> assert false)
  in
  let pool1 = donate 4 and pool2 = donate 4 in
  (* device memory BAR: 8 pages of "VRAM" *)
  let vram_base_spn = Memory.Phys_mem.alloc_frames (Hyp.phys hyp) 8 in
  let vram_base = Memory.Addr.of_pfn vram_base_spn in
  (* BAR pages are mapped into the driver VM (device assignment) *)
  for i = 0 to 7 do
    let gpa = Memory.Allocator.reserve_unused driver.Vm.gpa_alloc in
    Memory.Ept.map (Vm.ept driver) ~gpa
      ~spa:(Memory.Addr.of_pfn (vram_base_spn + i))
      ~perms:Memory.Perm.rw
  done;
  let mgr =
    Region.create hyp ~driver_vm:driver ~iommu ~owners:[ g1; g2 ]
      ~pool_spns:[ pool1; pool2 ] ~dev_mem:(vram_base, 8)
  in
  (hyp, driver, g1, g2, iommu, mgr, pool1, vram_base)

let test_region_driver_cannot_read_pool () =
  let _hyp, driver, _g1, _g2, _iommu, _mgr, pool1, _vram = region_fixture () in
  (* find the driver-VM gpa of a pool page and try to read it *)
  let spn = List.hd pool1 in
  let gpas = Memory.Ept.gpas_of_spn (Vm.ept driver) spn in
  Alcotest.(check bool) "pool page still mapped (perms stripped, not unmapped)" true
    (gpas <> []);
  List.iter
    (fun gpa ->
      Alcotest.(check bool) "driver CPU read faults" true
        (match Vm.read driver ~pt:Vm.no_pt ~addr:gpa ~len:4 with
        | _ -> false
        | exception Memory.Fault.Ept_violation _ -> true);
      Alcotest.(check bool) "driver CPU write faults" true
        (match Vm.write driver ~pt:Vm.no_pt ~addr:gpa (Bytes.of_string "x") with
        | () -> false
        | exception Memory.Fault.Ept_violation _ -> true))
    gpas

let test_region_driver_cannot_read_vram () =
  let _hyp, driver, _g1, _g2, _iommu, _mgr, _pool, vram = region_fixture () in
  let gpas = Memory.Ept.gpas_of_spn (Vm.ept driver) (Memory.Addr.pfn vram) in
  Alcotest.(check bool) "vram mapped in driver" true (gpas <> []);
  List.iter
    (fun gpa ->
      Alcotest.(check bool) "driver read of vram faults" true
        (match Vm.read driver ~pt:Vm.no_pt ~addr:gpa ~len:4 with
        | _ -> false
        | exception Memory.Fault.Ept_violation _ -> true))
    gpas

let test_region_iommu_map_own_pool_only () =
  let _hyp, _driver, _g1, _g2, _iommu, mgr, pool1, _vram = region_fixture () in
  let own = Memory.Addr.of_pfn (List.hd pool1) in
  Region.request_iommu_map mgr ~rid:0 ~dma:0x10000 ~spa:own ~perms:Memory.Perm.rw;
  (* stealing: region 1 asks to map region 0's page *)
  Alcotest.(check bool) "cross-region map rejected" true
    (match
       Region.request_iommu_map mgr ~rid:1 ~dma:0x20000 ~spa:own ~perms:Memory.Perm.rw
     with
    | () -> false
    | exception Region.Isolation_violation _ -> true)

let test_region_switch_remaps_iommu () =
  let _hyp, _driver, _g1, _g2, iommu, mgr, _pool, _vram = region_fixture () in
  let p0 = Region.alloc_protected_page mgr ~rid:0 in
  let p1 = Region.alloc_protected_page mgr ~rid:1 in
  Region.request_iommu_map mgr ~rid:0 ~dma:0x10000 ~spa:p0 ~perms:Memory.Perm.rw;
  Region.request_iommu_map mgr ~rid:1 ~dma:0x20000 ~spa:p1 ~perms:Memory.Perm.rw;
  let (_ : int) = Region.switch_region mgr ~rid:0 in
  Alcotest.(check int) "region 0 dma live" p0
    (Memory.Iommu.translate iommu ~dma:0x10000 ~access:Memory.Perm.Read);
  Alcotest.(check bool) "region 1 dma dead while 0 active" true
    (match Memory.Iommu.translate iommu ~dma:0x20000 ~access:Memory.Perm.Read with
    | _ -> false
    | exception Memory.Fault.Iommu_fault _ -> true);
  let touched = Region.switch_region mgr ~rid:1 in
  Alcotest.(check int) "switch touched both mappings" 2 touched;
  Alcotest.(check int) "region 1 dma live" p1
    (Memory.Iommu.translate iommu ~dma:0x20000 ~access:Memory.Perm.Read);
  Alcotest.(check bool) "region 0 dma dead after switch" true
    (match Memory.Iommu.translate iommu ~dma:0x10000 ~access:Memory.Perm.Read with
    | _ -> false
    | exception Memory.Fault.Iommu_fault _ -> true)

let test_region_free_scrubs () =
  let hyp, _driver, _g1, _g2, _iommu, mgr, _pool, _vram = region_fixture () in
  let spa = Region.alloc_protected_page mgr ~rid:0 in
  Memory.Phys_mem.write (Hyp.phys hyp) ~spa (Bytes.of_string "guest secret");
  Region.free_protected_page mgr ~rid:0 ~spa;
  Alcotest.(check string) "page scrubbed on free" (String.make 12 '\000')
    (Bytes.to_string (Memory.Phys_mem.read (Hyp.phys hyp) ~spa ~len:12))

let test_region_dev_mem_hypercalls () =
  let _hyp, _driver, _g1, _g2, _iommu, mgr, _pool, vram = region_fixture () in
  let base0, pages0 = Region.dev_slice mgr 0 in
  Alcotest.(check int) "slice 0 starts at vram base" vram base0;
  Alcotest.(check int) "even split" 4 pages0;
  Region.hyp_write_dev_mem mgr ~rid:0 ~spa:base0 ~data:(Bytes.of_string "gpu-pt");
  Alcotest.(check string) "write visible via read hypercall" "gpu-pt"
    (Bytes.to_string (Region.hyp_read_dev_mem mgr ~rid:0 ~spa:base0 ~len:6));
  (* writing into region 1's slice with rid 0 must fail *)
  let base1, _ = Region.dev_slice mgr 1 in
  Alcotest.(check bool) "cross-slice write rejected" true
    (match Region.hyp_write_dev_mem mgr ~rid:0 ~spa:base1 ~data:(Bytes.make 1 'x') with
    | () -> false
    | exception Region.Isolation_violation _ -> true)

(* ---- property tests ---- *)

(* The check scans a group in place.  Groups of 1-9 entries of mixed
   kinds, at addresses on both sides of 2^32 (the stored address's high
   half matters), with a second group declared in the very next slots
   (the scan must stop at the last flag).  Each request derives from an
   entry of either group, or lands anywhere, and the answer must equal
   a model built from the declared ops. *)
let op_parts = function
  | Grant_table.Copy_to_user { addr; len } -> (1, addr, len)
  | Grant_table.Copy_from_user { addr; len } -> (2, addr, len)
  | Grant_table.Map_page { addr; len } -> (3, addr, len)

let make_op kind addr len =
  match kind with
  | 1 -> Grant_table.Copy_to_user { addr; len }
  | 2 -> Grant_table.Copy_from_user { addr; len }
  | _ -> Grant_table.Map_page { addr; len }

let grant_case_gen =
  let open QCheck.Gen in
  let addr =
    oneof
      [
        int_bound 0xffff;
        map (fun d -> (1 lsl 32) - 0x8000 + d) (int_bound 0xffff);
        int_bound (1 lsl 40);
      ]
  in
  let entry = map3 make_op (int_range 1 3) addr (int_bound 512) in
  let group = list_size (int_range 1 9) entry in
  (* a request: which entry it derives from (past both groups: a
     random one), its kind (0: the entry's own), and the offset and
     length relative to that entry *)
  let request = quad (int_bound 20) (int_bound 3) (int_range (-8) 8) (int_range (-8) 8) in
  pair (pair group group) (list_size (int_range 1 8) (pair request (pair (int_range 1 3) addr)))

let grant_case_print ((group, next), requests) =
  let ops g = String.concat "; " (List.map (Fmt.str "%a" Grant_table.pp_op) g) in
  Printf.sprintf "group [%s] next [%s] %d requests" (ops group) (ops next)
    (List.length requests)

let prop_grant_authorisation_sound =
  QCheck.Test.make ~name:"grant authorises exactly declared sub-ranges" ~count:300
    (QCheck.make ~print:grant_case_print grant_case_gen)
    (fun ((group, next), requests) ->
      let hyp = make_hyp () in
      let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
      let table = Hyp.setup_grant_table hyp guest in
      let r = Grant_table.declare table group in
      let r_next = Grant_table.declare table next in
      let model requested =
        let kind, addr, len = op_parts requested in
        List.exists
          (fun decl ->
            let k, a, l = op_parts decl in
            k = kind && len >= 0 && addr >= a && addr + len <= a + l)
          group
      in
      let declared = group @ next in
      r_next = r + List.length group
      && List.for_all
           (fun ((src, kind, d_addr, d_len), (random_kind, random_addr)) ->
             let requested =
               match List.nth_opt declared src with
               | None -> make_op random_kind random_addr (abs d_len * 32)
               | Some decl ->
                   let k, a, l = op_parts decl in
                   make_op (if kind = 0 then k else kind) (a + d_addr) (l + d_len)
             in
             Grant_table.authorises table ~grant_ref:r ~requested = model requested)
           requests)

(* The grant check against a word-by-word reference model with exact
   bounds.  Each case writes raw entries into the table page through
   the guest's own mapping: any kind byte 0-255, any flags, lengths 0
   and 2^32 - 1, addresses with both 32-bit halves set (some too large
   for a non-negative [int]).  Requests sit at and across each entry's
   bounds, with lengths up to [max_int].  The model reads the table a
   u32 at a time and compares in base-2^32 pairs, so nothing in it can
   overflow. *)
type raw_entry = { w0 : int; len : int; lo : int; hi : int; tail : int }

let entry_size = 24

(* The table is the first page the hypervisor reserves in a fresh guest,
   the top page of its RAM; a declared entry is checked there before the
   page is used. *)
let raw_table () =
  let hyp = make_hyp () in
  let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let table = Hyp.setup_grant_table hyp guest in
  let gpa = mib - Memory.Addr.page_size in
  let r =
    Grant_table.declare table [ Grant_table.Map_page { addr = 0x1234_5678_9abc; len = 0x77 } ]
  in
  let word off = Vm.read_u32 guest ~pt:Vm.no_pt ~addr:(gpa + (r * entry_size) + off) in
  if (word 0, word 4, word 8, word 12) <> (0x103, 0x77, 0x5678_9abc, 0x1234) then
    Alcotest.fail "the grant table is not the top page of guest RAM";
  Grant_table.release table r;
  (guest, gpa, table)

let write_raw guest ~gpa slot e =
  let b = Bytes.create entry_size in
  let set off v = Bytes.set_int32_le b off (Int32.of_int v) in
  set 0 e.w0;
  set 4 e.len;
  set 8 e.lo;
  set 12 e.hi;
  set 16 e.tail;
  set 20 (e.tail lxor 0x5a5a_5a5a);
  Vm.write guest ~pt:Vm.no_pt ~addr:(gpa + (slot * entry_size)) b

(* Exact arithmetic on (high, low) pairs in base 2^32. *)
let split n = (n lsr 32, n land 0xffff_ffff)

let add (h1, l1) (h2, l2) =
  let l = l1 + l2 in
  (h1 + h2 + (l lsr 32), l land 0xffff_ffff)

let le (h1, l1) (h2, l2) = h1 < h2 || (h1 = h2 && l1 <= l2)

let model_authorises guest ~gpa ~grant_ref ~kind ~addr ~len =
  let word slot off = Vm.read_u32 guest ~pt:Vm.no_pt ~addr:(gpa + (slot * entry_size) + off) in
  let within slot =
    let decl = (word slot 12, word slot 8) in
    addr >= 0 && len >= 0
    && le decl (split addr)
    && le (add (split addr) (split len)) (add decl (0, word slot 4))
  in
  let rec scan slot =
    slot < Grant_table.capacity
    &&
    let w0 = word slot 0 in
    let k = w0 land 0xff in
    k >= 1 && k <= 3
    && ((k = kind && within slot) || (w0 land 0x100 = 0 && scan (slot + 1)))
  in
  grant_ref >= 0 && scan grant_ref

let raw_case_gen =
  let open QCheck.Gen in
  let u32 = map2 (fun h l -> (h lsl 16) lor l) (int_bound 0xffff) (int_bound 0xffff) in
  let entry =
    let kind = frequency [ (6, int_range 1 3); (1, int_bound 255) ] in
    let flags = frequency [ (2, return 0); (1, return 1); (1, int_bound 255) ] in
    let len =
      frequency [ (1, return 0); (1, return 0xffff_ffff); (3, int_bound 0x1000); (2, u32) ]
    in
    let lo =
      frequency
        [ (2, int_bound 0xffff); (1, map (fun d -> 0xffff_ffff - d) (int_bound 0xff)); (2, u32) ]
    in
    let hi =
      frequency [ (3, return 0); (2, int_range 1 0xff); (1, return 0x3fff_ffff); (1, u32) ]
    in
    map
      (fun ((kind, flags, pad), (len, lo, hi), tail) ->
        { w0 = kind lor (flags lsl 8) lor (pad lsl 16); len; lo; hi; tail })
      (triple (triple kind flags (int_bound 0xffff)) (triple len lo hi) u32)
  in
  (* which entry a request derives from (past the list: any address),
     where it starts and how long it is relative to that entry, and its
     kind (0: the entry's own) *)
  let request = quad (int_bound 12) (int_bound 7) (int_bound 9) (int_bound 3) in
  triple
    (frequency [ (4, int_bound 40); (1, int_range (Grant_table.capacity - 4) Grant_table.capacity) ])
    (list_size (int_range 1 10) entry)
    (list_size (int_range 1 24) request)

let raw_case_print (grant_ref, entries, requests) =
  Printf.sprintf "grant_ref %d, entries [%s], %d requests" grant_ref
    (String.concat "; "
       (List.map
          (fun e -> Printf.sprintf "%08x %08x %08x:%08x" e.w0 e.len e.hi e.lo)
          entries))
    (List.length requests)

(* Saturating, so a derived address stays a non-negative [int]. *)
let sat_add a b = if a > max_int - b then max_int else a + b
let sat_sub a b = if a < b then 0 else a - b

let prop_grant_matches_word_model =
  QCheck.Test.make ~name:"grant check matches a word-by-word model with exact bounds"
    ~count:400
    (QCheck.make ~print:raw_case_print raw_case_gen)
    (fun (grant_ref, entries, requests) ->
      let guest, gpa, table = raw_table () in
      List.iteri
        (fun i e ->
          let slot = grant_ref + i in
          if slot < Grant_table.capacity then write_raw guest ~gpa slot e)
        entries;
      let entries = Array.of_list entries in
      List.for_all
        (fun (src, at, size, kind) ->
          let a, l, k =
            if src < Array.length entries then
              let e = entries.(src) in
              let a = if e.hi < 0x4000_0000 then e.lo lor (e.hi lsl 32) else max_int - e.lo in
              (a, e.len, e.w0 land 0xff)
            else ((src * 0x1_0001_0001) + 0x7000, 0x40, 1)
          in
          let stop = sat_add a l in
          let addr =
            [| a; sat_sub a 1; sat_add a 1; sat_sub stop 1; stop; sat_add stop 1; max_int; a lxor 0xfff |].(at)
          in
          let len =
            [| 0; 1; l; sat_sub l 1; l + 1; sat_sub stop addr; sat_add (sat_sub stop addr) 1; max_int; -1; max_int - addr |].(size)
          in
          let kind = if kind = 0 then (if k >= 1 && k <= 3 then k else 1) else kind in
          let requested = make_op kind addr len in
          let got = Grant_table.authorises table ~grant_ref ~requested
          and want = model_authorises guest ~gpa ~grant_ref ~kind ~addr ~len in
          got = want
          || QCheck.Test.fail_reportf "%a under grant %d: authorises %b, model %b"
               Grant_table.pp_op requested grant_ref got want)
        requests)

let prop_copy_api_identity =
  QCheck.Test.make ~name:"copy_from(copy_to(x)) = x under valid grants" ~count:100
    QCheck.(string_of_size Gen.(1 -- 2048))
    (fun payload ->
      QCheck.assume (String.length payload > 0);
      let hyp, driver, guest, pt, table = driver_and_guest () in
      let len = String.length payload in
      QCheck.assume (len <= 8 * Memory.Addr.page_size - 0x100);
      let gva = 0x1080 in
      let r =
        Grant_table.declare table
          [
            Grant_table.Copy_to_user { addr = gva; len };
            Grant_table.Copy_from_user { addr = gva; len };
          ]
      in
      let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
      Hyp.copy_to_process hyp req ~gva ~data:(Bytes.of_string payload);
      Bytes.to_string (Hyp.copy_from_process hyp req ~gva ~len) = payload)

let suites =
  [
    ( "hypervisor.vm",
      [
        Alcotest.test_case "vm ram" `Quick test_create_vm_ram;
        Alcotest.test_case "vm ram isolation" `Quick test_vm_isolated_ram;
        Alcotest.test_case "unused vm lookups allocate nothing" `Quick test_unused_vm_lookups;
        Alcotest.test_case "gva access" `Quick test_gva_access;
      ] );
    ( "hypervisor.shared_page",
      [
        Alcotest.test_case "two-vm sharing" `Quick test_shared_page_two_vms;
        Alcotest.test_case "ept perms respected" `Quick test_shared_page_respects_ept_perms;
        Alcotest.test_case "zero page never held" `Quick test_shared_page_zero_page_not_held;
      ] );
    ( "hypervisor.grant_table",
      [
        Alcotest.test_case "declare/lookup/authorise" `Quick test_grant_declare_lookup;
        Alcotest.test_case "release and reuse" `Quick test_grant_release_reuse;
        Alcotest.test_case "table full" `Quick test_grant_table_full;
        Alcotest.test_case "overflowing requests refused" `Quick
          test_grant_overflowing_requests_refused;
        QCheck_alcotest.to_alcotest prop_grant_authorisation_sound;
        QCheck_alcotest.to_alcotest prop_grant_matches_word_model;
      ] );
    ( "hypervisor.memory_ops",
      [
        Alcotest.test_case "copy round trip" `Quick test_copy_roundtrip_via_api;
        Alcotest.test_case "undeclared copy rejected" `Quick test_undeclared_copy_rejected;
        Alcotest.test_case "attack: copy to guest kernel" `Quick test_attack_copy_to_guest_kernel;
        Alcotest.test_case "overflowing copy touches nothing" `Quick
          test_overflowing_copy_touches_nothing;
        Alcotest.test_case "malformed copy touches nothing" `Quick
          test_malformed_copy_touches_nothing;
        Alcotest.test_case "guest cannot call api" `Quick test_guest_cannot_call_api;
        Alcotest.test_case "map page into process" `Quick test_map_page_into_process;
        Alcotest.test_case "map requires prepared levels" `Quick test_map_page_requires_prepared_levels;
        Alcotest.test_case "map at undeclared gva rejected" `Quick test_map_page_undeclared_gva_rejected;
        QCheck_alcotest.to_alcotest prop_copy_api_identity;
      ] );
    ( "hypervisor.regions",
      [
        Alcotest.test_case "driver cannot read pool" `Quick test_region_driver_cannot_read_pool;
        Alcotest.test_case "driver cannot read vram" `Quick test_region_driver_cannot_read_vram;
        Alcotest.test_case "iommu map own pool only" `Quick test_region_iommu_map_own_pool_only;
        Alcotest.test_case "switch remaps iommu" `Quick test_region_switch_remaps_iommu;
        Alcotest.test_case "free scrubs page" `Quick test_region_free_scrubs;
        Alcotest.test_case "dev-mem hypercalls bounded" `Quick test_region_dev_mem_hypercalls;
      ] );
  ]
