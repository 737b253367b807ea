(* End-to-end device data isolation (§4.2): two guests do real GPU
   work through the full stack; their data must land in disjoint
   protected regions, the driver VM must not be able to read any of
   it, and the device must see only the active guest's region. *)

module M = Paradice.Machine

let boot_di () =
  let config = Paradice.Config.with_data_isolation Paradice.Config.default in
  let m = M.create ~config () in
  let att = M.attach_gpu m in
  let g1 = M.add_guest m ~name:"g1" () in
  let g2 = M.add_guest m ~name:"g2" () in
  let mgr = M.enable_gpu_data_isolation m in
  (m, att, g1, g2, mgr)

(* run a guest's texture upload; returns the spa where its data lives *)
let upload_texture m (g : M.guest) ~payload =
  let env = Workloads.Runner.of_guest ~label:"g" m g in
  Workloads.Runner.run_to_completion env (fun () ->
      let task = Workloads.Runner.spawn_app env ~name:"app" in
      let fd = Workloads.Gem.open_gpu env task in
      let bo =
        Workloads.Gem.create env task fd ~size:4096
          ~domain:Devices.Radeon_ioctl.domain_gtt
      in
      let va = Workloads.Gem.map env task fd bo in
      Oskit.Vfs.user_write env.Workloads.Runner.kernel task ~gva:va
        (Bytes.of_string payload);
      (* render with it so the GPU touches the page via DMA *)
      let ib = [ Devices.Radeon_ioctl.pkt_draw; 500; 640; 480; 1; 0 ] in
      let (_ : int) = Workloads.Gem.submit_cs env task fd ~ib_words:ib ~relocs:[| bo |] in
      Workloads.Gem.wait_idle env task fd;
      let gpa =
        Memory.Guest_pt.translate task.Oskit.Defs.pt ~gva:va ~access:Memory.Perm.Read
      in
      match Memory.Ept.lookup (Hypervisor.Vm.ept g.M.vm) ~gpa with
      | Some (spa, _) -> spa
      | None -> Alcotest.fail "texture page unmapped")

let test_guest_data_in_disjoint_regions () =
  let m, _att, g1, g2, mgr = boot_di () in
  let spa1 = upload_texture m g1 ~payload:"texture-of-guest-one" in
  let spa2 = upload_texture m g2 ~payload:"texture-of-guest-two" in
  Alcotest.(check bool) "different frames" true (Memory.Addr.pfn spa1 <> Memory.Addr.pfn spa2);
  (* each page belongs to its owner's region pool, not the other's *)
  let rid1 = Option.get (Hypervisor.Region.region_of_guest mgr (Hypervisor.Vm.id g1.M.vm)) in
  let rid2 = Option.get (Hypervisor.Region.region_of_guest mgr (Hypervisor.Vm.id g2.M.vm)) in
  Alcotest.(check bool) "distinct regions" true (rid1 <> rid2);
  Alcotest.(check bool) "g1's page rejected from g2's region" true
    (match
       Hypervisor.Region.request_iommu_map mgr ~rid:rid2 ~dma:0xAAA0000
         ~spa:(Memory.Addr.align_down spa1) ~perms:Memory.Perm.rw
     with
    | () -> false
    | exception Hypervisor.Region.Isolation_violation _ -> true);
  (* the data really is there (hypervisor view), and still correct *)
  let phys = Hypervisor.Hyp.phys (M.hyp m) in
  Alcotest.(check string) "g1 payload intact" "texture-of-guest-one"
    (Bytes.to_string (Memory.Phys_mem.read phys ~spa:spa1 ~len:20));
  Alcotest.(check string) "g2 payload intact" "texture-of-guest-two"
    (Bytes.to_string (Memory.Phys_mem.read phys ~spa:spa2 ~len:20))

let test_driver_vm_blind_to_both () =
  let m, _att, g1, g2, _mgr = boot_di () in
  let spa1 = upload_texture m g1 ~payload:"secret-1" in
  let spa2 = upload_texture m g2 ~payload:"secret-2" in
  let driver_vm = Oskit.Kernel.vm (M.driver_kernel m) in
  List.iter
    (fun spa ->
      let gpas = Memory.Ept.gpas_of_spn (Hypervisor.Vm.ept driver_vm) (Memory.Addr.pfn spa) in
      Alcotest.(check bool) "mapped in driver VM (perms stripped)" true (gpas <> []);
      List.iter
        (fun gpa ->
          Alcotest.(check bool) "driver read blocked" true
            (match
               Hypervisor.Vm.read driver_vm ~pt:Hypervisor.Vm.no_pt ~addr:gpa ~len:8
             with
            | _ -> false
            | exception Memory.Fault.Ept_violation _ -> true))
        gpas)
    [ spa1; spa2 ]

let test_region_switches_on_alternating_guests () =
  let m, att, g1, g2, mgr = boot_di () in
  ignore mgr;
  let audit = Hypervisor.Hyp.audit (M.hyp m) in
  let before = audit.Hypervisor.Audit.region_switches in
  let (_ : int) = upload_texture m g1 ~payload:"a" in
  let (_ : int) = upload_texture m g2 ~payload:"b" in
  let (_ : int) = upload_texture m g1 ~payload:"c" in
  (* each guest's command submission switched the device to its region *)
  Alcotest.(check bool) "at least three switches" true
    (audit.Hypervisor.Audit.region_switches - before >= 3);
  Alcotest.(check bool) "driver counted switches too" true
    (Devices.Radeon_drv.stats_region_switches att.M.radeon >= 3);
  (* rendering still worked for everyone *)
  Alcotest.(check int) "three frames rendered" 3
    (Devices.Gpu_hw.frames_rendered att.M.gpu);
  Alcotest.(check (list string)) "no GPU faults" [] (Devices.Gpu_hw.faults att.M.gpu)

let test_vram_bo_confined_to_slice () =
  let m, att, g1, _g2, mgr = boot_di () in
  let env = Workloads.Runner.of_guest ~label:"g1" m g1 in
  let rid = Option.get (Hypervisor.Region.region_of_guest mgr (Hypervisor.Vm.id g1.M.vm)) in
  let base, pages = Hypervisor.Region.dev_slice mgr rid in
  Workloads.Runner.run_to_completion env (fun () ->
      let task = Workloads.Runner.spawn_app env ~name:"app" in
      let fd = Workloads.Gem.open_gpu env task in
      let bo =
        Workloads.Gem.create env task fd ~size:8192
          ~domain:Devices.Radeon_ioctl.domain_vram
      in
      let va = Workloads.Gem.map env task fd bo in
      Oskit.Vfs.user_write env.Workloads.Runner.kernel task ~gva:va
        (Bytes.of_string "vram-data");
      (* physically inside this guest's VRAM slice *)
      let gpa =
        Memory.Guest_pt.translate task.Oskit.Defs.pt ~gva:va ~access:Memory.Perm.Read
      in
      match Memory.Ept.lookup (Hypervisor.Vm.ept g1.M.vm) ~gpa with
      | Some (spa, _) ->
          Alcotest.(check bool) "bo inside the region's VRAM slice" true
            (spa >= base && spa < base + (pages * Memory.Addr.page_size));
          Alcotest.(check bool) "inside the whole aperture" true
            (spa >= Devices.Gpu_hw.vram_base att.M.gpu)
      | None -> Alcotest.fail "vram bo unmapped")

let test_keyboard_events_through_cvd () =
  let m = M.create () in
  let kbd = M.attach_keyboard m in
  let g = M.add_guest m ~name:"g" () in
  let got = ref [] in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"reader" in
      let fd = Fixtures.ok (Oskit.Vfs.openf g.M.kernel app "/dev/input/event1") in
      let buf = Oskit.Task.alloc_buf app 512 in
      let want = 3 * 3 (* press + release + syn per key *) in
      let seen = ref 0 in
      while !seen < want do
        let n = Fixtures.ok (Oskit.Vfs.read g.M.kernel app fd ~buf ~len:512) in
        let data = Oskit.Task.read_mem app ~gva:buf ~len:n in
        for i = 0 to (n / Devices.Evdev.event_bytes) - 1 do
          let e = Devices.Evdev.decode_event data (i * Devices.Evdev.event_bytes) in
          if e.Devices.Evdev.ev_type = Devices.Evdev.ev_key && e.Devices.Evdev.value = 1
          then got := e.Devices.Evdev.code :: !got;
          incr seen
        done
      done);
  Devices.Evdev.start_keyboard kbd ~rate_hz:50. ~keys:[ 30; 48; 46 ] (* a b c *);
  Sim.Engine.run (M.engine m);
  Alcotest.(check (list int)) "key presses in order" [ 30; 48; 46 ] (List.rev !got)

let test_input_policy_foreground_only () =
  (* input notifications reach only the foreground guest (§5.1) *)
  let m = M.create () in
  let mouse = M.attach_mouse m in
  let g1 = M.add_guest m ~name:"fg" () in
  let g2 = M.add_guest m ~name:"bg" () in
  let sig1 = ref 0 and sig2 = ref 0 in
  let subscribe (g : M.guest) counter =
    Sim.Engine.spawn (M.engine m) (fun () ->
        let app = M.spawn_app m g.M.kernel ~name:"l" in
        let fd = Fixtures.ok (Oskit.Vfs.openf g.M.kernel app "/dev/input/event0") in
        Oskit.Task.on_sigio app (fun () -> incr counter);
        Fixtures.ok (Oskit.Vfs.fasync g.M.kernel app fd ~on:true))
  in
  subscribe g1 sig1;
  subscribe g2 sig2;
  (* g1 is foreground (first guest) *)
  Sim.Engine.at (M.engine m) ~delay:5_000. (fun () ->
      Devices.Evdev.start_mouse mouse ~rate_hz:125. ~moves:2);
  Sim.Engine.run (M.engine m);
  Alcotest.(check bool) "foreground guest notified" true (!sig1 > 0);
  Alcotest.(check int) "background guest silent" 0 !sig2

let suites =
  [
    ( "isolation.e2e",
      [
        Alcotest.test_case "disjoint regions" `Quick test_guest_data_in_disjoint_regions;
        Alcotest.test_case "driver VM blind" `Quick test_driver_vm_blind_to_both;
        Alcotest.test_case "region switching" `Quick test_region_switches_on_alternating_guests;
        Alcotest.test_case "vram confined to slice" `Quick test_vram_bo_confined_to_slice;
      ] );
    ( "policy",
      [
        Alcotest.test_case "keyboard through cvd" `Quick test_keyboard_events_through_cvd;
        Alcotest.test_case "input to foreground only" `Quick test_input_policy_foreground_only;
      ] );
  ]
