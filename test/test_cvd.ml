(* Full-stack CVD tests: guest application -> virtual device file ->
   frontend -> channel -> backend -> real driver -> device, with the
   hypervisor executing and validating every cross-VM memory
   operation. *)

open Oskit
open Fixtures
module M = Paradice.Machine

let page = Memory.Addr.page_size

let boot_with devices =
  let m = M.create ~config:Paradice.Config.default () in
  List.iter
    (fun d ->
      match d with
      | `Gpu -> ignore (M.attach_gpu m)
      | `Mouse -> ignore (M.attach_mouse m)
      | `Camera -> ignore (M.attach_camera m ())
      | `Audio -> ignore (M.attach_audio m)
      | `Netmap -> ignore (M.attach_netmap m))
    devices;
  m

let test_proto_roundtrip () =
  let reqs =
    [
      Paradice.Proto.Ropen { path = "/dev/dri/card0" };
      Paradice.Proto.Rread { vfd = 3; buf = 0x1234; len = 77 };
      Paradice.Proto.Rioctl { vfd = 1; cmd = 0xC018640B; arg = 0x55667788L };
      Paradice.Proto.Rmmap { vfd = 2; gva = 0x40000000; len = 8192; pgoff = 256 };
      Paradice.Proto.Rpoll { vfd = 9; want_in = true; want_out = false; timeout_us = 123.5 };
      Paradice.Proto.Rfasync { vfd = 4; on = true };
      Paradice.Proto.Rnoop;
    ]
  in
  List.iter
    (fun req ->
      let bytes = Paradice.Proto.encode_request ~grant_ref:17 ~pid:42 req in
      let req', gref, pid = Paradice.Proto.decode_request bytes in
      Alcotest.(check bool)
        (Paradice.Proto.request_name req ^ " round trips")
        true
        (req' = req && gref = 17 && pid = 42))
    reqs;
  List.iter
    (fun resp ->
      let bytes = Paradice.Proto.encode_response resp in
      Alcotest.(check bool) "response round trips" true
        (Paradice.Proto.decode_response bytes = resp))
    [
      Paradice.Proto.Rok 123;
      Paradice.Proto.Rerr 22;
      Paradice.Proto.Rpoll_reply { pollin = true; pollout = false };
    ]

let test_guest_opens_virtual_device () =
  let m = boot_with [ `Gpu ] in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let fd = ok (Vfs.openf g.M.kernel app "/dev/dri/card0") in
      Alcotest.(check bool) "fd valid" true (fd >= 3);
      (* device info module populated the guest's sysfs *)
      Alcotest.(check (option string)) "gpu vendor visible in guest"
        (Some "0x1002")
        (Devfs.sysfs_get (Kernel.devfs g.M.kernel) "class/drm/card0/device/vendor");
      (* and the virtual PCI bus *)
      Alcotest.(check int) "one pci function" 1
        (List.length (Paradice.Virt_pci.list g.M.pci));
      ok (Vfs.close g.M.kernel app fd))

let test_guest_gpu_matmul_through_cvd () =
  (* The flagship integration test: a guest application runs the whole
     GEM + CS + mmap flow against the real driver in the driver VM. *)
  let m = boot_with [ `Gpu ] in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"opencl" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/dri/card0") in
      let order = 6 in
      let bytes = order * order * 8 in
      let mk () = gem_create k app fd ~size:bytes ~domain:Devices.Radeon_ioctl.domain_gtt in
      let ha = mk () and hb = mk () and hout = mk () in
      let va = gem_mmap k app fd ~handle:ha in
      let vb = gem_mmap k app fd ~handle:hb in
      let vout = gem_mmap k app fd ~handle:hout in
      write_matrix k app ~gva:va ~order (fun i j -> float_of_int ((3 * i) - j));
      write_matrix k app ~gva:vb ~order (fun i j -> if i = j then 2. else 0.);
      let ib = [ Devices.Radeon_ioctl.pkt_compute; order; 0; 1; 2; 1 ] in
      let fence = submit_cs k app fd ~ib_words:ib ~relocs:[| ha; hb; hout |] in
      Alcotest.(check bool) "fence from cs" true (fence > 0);
      wait_idle k app fd;
      let okay = ref true in
      for i = 0 to order - 1 do
        for j = 0 to order - 1 do
          let expected = 2. *. float_of_int ((3 * i) - j) in
          if abs_float (read_matrix_elt k app ~gva:vout ~order ~i ~j -. expected) > 1e-9
          then okay := false
        done
      done;
      Alcotest.(check bool) "guest GPU result correct through CVD" true !okay;
      (* hypervisor actually executed cross-VM operations *)
      let audit = Hypervisor.Hyp.audit (M.hyp m) in
      Alcotest.(check bool) "hypervisor performed maps" true
        (audit.Hypervisor.Audit.maps_performed > 0);
      Alcotest.(check bool) "hypervisor validated copies" true
        (audit.Hypervisor.Audit.copies_validated > 0);
      Alcotest.(check int) "no rejections in a benign run" 0
        audit.Hypervisor.Audit.grants_rejected)

let test_guest_mouse_events () =
  let m = M.create () in
  let mouse = M.attach_mouse m in
  let g = M.add_guest m ~name:"g1" () in
  let events = ref 0 and sigio = ref 0 in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"evtest" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/input/event0") in
      Task.on_sigio app (fun () -> incr sigio);
      ok (Vfs.fasync k app fd ~on:true);
      let buf = Task.alloc_buf app 256 in
      (* read until we have seen 6 events (3 moves x 2) *)
      while !events < 6 do
        let n = ok (Vfs.read k app fd ~buf ~len:256) in
        events := !events + (n / Devices.Evdev.event_bytes)
      done;
      ok (Vfs.close k app fd));
  Devices.Evdev.start_mouse mouse ~rate_hz:125. ~moves:3;
  Sim.Engine.run (M.engine m);
  Alcotest.(check int) "six events crossed the boundary" 6 !events;
  Alcotest.(check bool) "SIGIO forwarded to guest" true (!sigio > 0)

let test_guest_camera_stream () =
  let m = boot_with [ `Camera ] in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"guvcview" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/video0") in
      let req = Task.alloc_buf app 8 in
      put_u32 app ~gva:req 2;
      let (_ : int) =
        ok (Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_reqbufs ~arg:(Int64.of_int req))
      in
      let qb = Task.alloc_buf app 8 in
      put_u32 app ~gva:qb 0;
      let (_ : int) = ok (Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_qbuf ~arg:(Int64.of_int qb)) in
      put_u32 app ~gva:qb 1;
      let (_ : int) = ok (Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_qbuf ~arg:(Int64.of_int qb)) in
      let (_ : int) = ok (Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_streamon ~arg:0L) in
      let t0 = Sim.Engine.now (M.engine m) in
      let frames = 5 in
      for _ = 1 to frames do
        let (_ : int) =
          ok (Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_dqbuf ~arg:(Int64.of_int qb))
        in
        let idx = get_u32 app ~gva:qb in
        put_u32 app ~gva:qb idx;
        let (_ : int) =
          ok (Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_qbuf ~arg:(Int64.of_int qb))
        in
        ()
      done;
      let fps =
        float_of_int frames /. ((Sim.Engine.now (M.engine m) -. t0) /. 1_000_000.)
      in
      Alcotest.(check bool) "camera FPS ~29.5 through CVD" true (fps > 27. && fps < 31.))

let test_exclusive_device_across_guests () =
  (* §5.1: single-open drivers allow only one guest at a time. *)
  let m = boot_with [ `Camera ] in
  let g1 = M.add_guest m ~name:"g1" () in
  let g2 = M.add_guest m ~name:"g2" () in
  run_in_process (M.engine m) (fun () ->
      let a1 = M.spawn_app m g1.M.kernel ~name:"cam1" in
      let a2 = M.spawn_app m g2.M.kernel ~name:"cam2" in
      let fd1 = ok (Vfs.openf g1.M.kernel a1 "/dev/video0") in
      (match Vfs.openf g2.M.kernel a2 "/dev/video0" with
      | Error Errno.EBUSY -> ()
      | Ok _ -> Alcotest.fail "second guest opened an exclusive device"
      | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e));
      ok (Vfs.close g1.M.kernel a1 fd1);
      let fd2 = ok (Vfs.openf g2.M.kernel a2 "/dev/video0") in
      ok (Vfs.close g2.M.kernel a2 fd2))

let test_noop_latency_interrupts_and_polling () =
  (* §6.1.1: ~35 us with interrupts, ~2 us with polling (hot path). *)
  let measure config =
    let m = M.create ~config () in
    ignore (M.attach_mouse m);
    let g = M.add_guest m ~name:"g" () in
    run_in_process (M.engine m) (fun () ->
        let app = M.spawn_app m g.M.kernel ~name:"bench" in
        (* warm the channel so the cold surcharge does not apply *)
        let pool = g.M.link.Paradice.Cvd_back.pool in
        let noop () =
          ignore
            (Paradice.Proto.decode_response
               (Paradice.Chan_pool.rpc pool
                  (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Defs.pid
                     Paradice.Proto.Rnoop)))
        in
        noop ();
        let n = 1000 in
        let t0 = Sim.Engine.now (M.engine m) in
        for _ = 1 to n do
          noop ()
        done;
        (Sim.Engine.now (M.engine m) -. t0) /. float_of_int n)
  in
  let with_interrupts = measure Paradice.Config.default in
  let with_polling = measure Paradice.Config.polling in
  Alcotest.(check bool)
    (Printf.sprintf "interrupt no-op ~35us (got %.1f)" with_interrupts)
    true
    (with_interrupts > 33. && with_interrupts < 37.);
  Alcotest.(check bool)
    (Printf.sprintf "polling no-op ~2us (got %.1f)" with_polling)
    true
    (with_polling > 1.5 && with_polling < 2.5)

let test_queue_cap_dos_protection () =
  (* §5.1: at most 100 queued operations per guest. *)
  let m = boot_with [ `Mouse ] in
  let g = M.add_guest m ~name:"dos" () in
  let busy = ref 0 and started = ref 0 in
  for i = 1 to 150 do
    Sim.Engine.spawn (M.engine m) (fun () ->
        let app = M.spawn_app m g.M.kernel ~name:(Printf.sprintf "flood%d" i) in
        let k = g.M.kernel in
        incr started;
        match Vfs.openf k app "/dev/input/event0" with
        | Ok fd ->
            (* blocking read with no events: occupies a backend slot *)
            let buf = Task.alloc_buf app 64 in
            (match Vfs.read k app fd ~buf ~len:64 with
            | Ok _ -> ()
            | Error Errno.EBUSY -> incr busy
            | Error _ -> ())
        | Error Errno.EBUSY -> incr busy
        | Error _ -> ())
  done;
  Sim.Engine.run ~until:1_000_000. (M.engine m);
  Alcotest.(check int) "all attackers ran" 150 !started;
  Alcotest.(check bool)
    (Printf.sprintf "cap rejected the overflow (busy=%d)" !busy)
    true (!busy >= 40)

let test_attack_malicious_backend_copy () =
  (* A compromised driver VM tries to use a guest's grant to write
     outside the declared buffer: the hypervisor must reject it and
     the guest memory must be unchanged. *)
  let m = boot_with [ `Gpu ] in
  let g = M.add_guest m ~name:"victim" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let secret = Task.alloc_buf app 64 in
      Task.write_mem app ~gva:secret (Bytes.of_string "secret-data");
      (* declare a legitimate 16-byte window elsewhere *)
      let buf = Task.alloc_buf app 16 in
      let table = Option.get (Hypervisor.Hyp.grant_table_of (M.hyp m) g.M.vm) in
      let gref =
        Hypervisor.Grant_table.declare table
          [ Hypervisor.Grant_table.Copy_to_user { addr = buf; len = 16 } ]
      in
      (* the "compromised driver VM" forges a request against the secret *)
      let evil_req =
        {
          Hypervisor.Hyp.caller = Kernel.vm (M.driver_kernel m);
          target = g.M.vm;
          pt = app.Defs.pt;
          grant_ref = gref;
        }
      in
      Alcotest.(check bool) "overwrite attempt rejected" true
        (match
           Hypervisor.Hyp.copy_to_process (M.hyp m) evil_req ~gva:secret
             ~data:(Bytes.make 11 'X')
         with
        | () -> false
        | exception Hypervisor.Hyp.Rejected _ -> true);
      Alcotest.(check bool) "read attempt rejected" true
        (match Hypervisor.Hyp.copy_from_process (M.hyp m) evil_req ~gva:secret ~len:11 with
        | _ -> false
        | exception Hypervisor.Hyp.Rejected _ -> true);
      Alcotest.(check string) "secret intact" "secret-data"
        (Bytes.to_string (Task.read_mem app ~gva:secret ~len:11)))

let test_munmap_tears_down_hypervisor_mappings () =
  let m = boot_with [ `Gpu ] in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/dri/card0") in
      let h = gem_create k app fd ~size:page ~domain:Devices.Radeon_ioctl.domain_gtt in
      let gva = gem_mmap k app fd ~handle:h in
      Vfs.user_write k app ~gva (Bytes.of_string "mapped");
      Alcotest.(check bool) "hypervisor registered mapping" true
        (Hypervisor.Hyp.mapped_via_hypervisor (M.hyp m) ~target:g.M.vm ~pt:app.Defs.pt ~gva);
      ok (Vfs.munmap k app ~gva);
      Alcotest.(check bool) "hypervisor mapping gone" false
        (Hypervisor.Hyp.mapped_via_hypervisor (M.hyp m) ~target:g.M.vm ~pt:app.Defs.pt ~gva);
      Alcotest.(check bool) "va dead in guest" true
        (match Task.read_mem app ~gva ~len:4 with
        | _ -> false
        | exception Memory.Fault.Page_fault _ -> true))

let test_freebsd_guest_linux_driver () =
  (* §3.2.2 / §5.1: FreeBSD guest using the Linux driver VM. *)
  let m = boot_with [ `Gpu ] in
  let g = M.add_guest m ~name:"bsd" ~flavor:Os_flavor.Freebsd_9 () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"bsd-app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/dri/card0") in
      let h = gem_create k app fd ~size:page ~domain:Devices.Radeon_ioctl.domain_gtt in
      let gva = gem_mmap k app fd ~handle:h in
      Vfs.user_write k app ~gva (Bytes.of_string "from freebsd");
      Alcotest.(check string) "freebsd guest maps and writes bo" "from freebsd"
        (Bytes.to_string (Vfs.user_read k app ~gva ~len:12)))

let test_mixed_version_guests () =
  (* Two Linux guests of different major versions share one driver VM. *)
  let m = boot_with [ `Gpu ] in
  let g_old = M.add_guest m ~name:"linux-2.6.35" ~flavor:Os_flavor.Linux_2_6_35 () in
  let g_new = M.add_guest m ~name:"linux-3.2.0" ~flavor:Os_flavor.Linux_3_2_0 () in
  run_in_process (M.engine m) (fun () ->
      List.iter
        (fun (g : M.guest) ->
          let app = M.spawn_app m g.M.kernel ~name:"app" in
          let fd = ok (Vfs.openf g.M.kernel app "/dev/dri/card0") in
          let h =
            gem_create g.M.kernel app fd ~size:page
              ~domain:Devices.Radeon_ioctl.domain_gtt
          in
          Alcotest.(check bool) "bo created" true (h > 0);
          ok (Vfs.close g.M.kernel app fd))
        [ g_old; g_new ])

let test_late_device_attach_replays_to_guests () =
  (* devices attached after a guest exists must still be exported *)
  let m = M.create () in
  let g = M.add_guest m ~name:"early-guest" () in
  ignore (M.attach_mouse m);
  ignore (M.attach_audio m);
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let fd1 = ok (Vfs.openf g.M.kernel app "/dev/input/event0") in
      let fd2 = ok (Vfs.openf g.M.kernel app "/dev/snd/pcm0") in
      ok (Vfs.close g.M.kernel app fd1);
      ok (Vfs.close g.M.kernel app fd2));
  (* device info modules were installed too *)
  Alcotest.(check bool) "sysfs populated for late attach" true
    (Devfs.sysfs_get (Kernel.devfs g.M.kernel) "class/sound/card0/id" <> None);
  Alcotest.(check int) "two pci functions" 2
    (List.length (Paradice.Virt_pci.list g.M.pci))

let test_all_devices_one_guest () =
  (* the Table 1 configuration: every class exported to one guest *)
  let m = M.create () in
  ignore (M.attach_gpu m);
  ignore (M.attach_mouse m);
  ignore (M.attach_keyboard m);
  ignore (M.attach_camera m ());
  ignore (M.attach_audio m);
  ignore (M.attach_netmap m);
  let g = M.add_guest m ~name:"g" () in
  let guest_devs = Devfs.list (Kernel.devfs g.M.kernel) in
  Alcotest.(check int) "six virtual device files" 6 (List.length guest_devs);
  Alcotest.(check bool) "all are CVD-backed" true
    (List.for_all
       (fun d -> String.length d.Defs.driver_name > 4
                 && String.sub d.Defs.driver_name 0 4 = "cvd/")
       guest_devs);
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      List.iter
        (fun (d : Defs.device) ->
          let fd = ok (Vfs.openf g.M.kernel app d.Defs.dev_path) in
          ok (Vfs.close g.M.kernel app fd))
        guest_devs)

let suites =
  [
    ( "cvd.proto",
      [ Alcotest.test_case "wire format round trip" `Quick test_proto_roundtrip ] );
    ( "cvd.integration",
      [
        Alcotest.test_case "guest opens virtual device" `Quick test_guest_opens_virtual_device;
        Alcotest.test_case "guest matmul through cvd" `Quick test_guest_gpu_matmul_through_cvd;
        Alcotest.test_case "guest mouse events + sigio" `Quick test_guest_mouse_events;
        Alcotest.test_case "guest camera stream" `Quick test_guest_camera_stream;
        Alcotest.test_case "exclusive device across guests" `Quick test_exclusive_device_across_guests;
        Alcotest.test_case "munmap tears down mappings" `Quick test_munmap_tears_down_hypervisor_mappings;
        Alcotest.test_case "freebsd guest, linux driver" `Quick test_freebsd_guest_linux_driver;
        Alcotest.test_case "mixed-version guests" `Quick test_mixed_version_guests;
        Alcotest.test_case "late device attach replays" `Quick test_late_device_attach_replays_to_guests;
        Alcotest.test_case "all six devices, one guest" `Quick test_all_devices_one_guest;
      ] );
    ( "cvd.performance",
      [ Alcotest.test_case "noop latency (interrupts, polling)" `Quick test_noop_latency_interrupts_and_polling ] );
    ( "cvd.isolation",
      [
        Alcotest.test_case "queue cap (DoS)" `Quick test_queue_cap_dos_protection;
        Alcotest.test_case "malicious backend copy" `Quick test_attack_malicious_backend_copy;
      ] );
  ]
