(* Transport-level tests: channel timing, cold/warm accounting, signal
   collapsing, pool behaviour, and failure injection at the wire level
   (a malicious frontend must not be able to wedge the backend). *)

module M = Paradice.Machine

let boot_null () =
  let m = M.create () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  (m, g)

let run_in eng f =
  let r = ref None in
  Sim.Engine.spawn eng (fun () -> r := Some (f ()));
  Sim.Engine.run eng;
  Option.get !r

let raw_rpc g bytes = Paradice.Chan_pool.rpc g.M.link.Paradice.Cvd_back.pool bytes

let test_malformed_request_rejected () =
  (* garbage opcode straight onto the wire *)
  let m, g = boot_null () in
  run_in (M.engine m) (fun () ->
      let junk = Bytes.make Paradice.Proto.slot_size '\xff' in
      match Paradice.Proto.decode_response (raw_rpc g junk) with
      | Paradice.Proto.Rerr code ->
          Alcotest.(check (option string)) "EINVAL on garbage" (Some "EINVAL")
            (Option.map Oskit.Errno.to_string (Oskit.Errno.of_code code))
      | _ -> Alcotest.fail "garbage must be rejected");
  (* backend still alive afterwards *)
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let resp =
        raw_rpc g
          (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid
             Paradice.Proto.Rnoop)
      in
      Alcotest.(check bool) "backend survives garbage" true
        (Paradice.Proto.decode_response resp = Paradice.Proto.Rok 0))

let test_bad_vfd_rejected () =
  let m, g = boot_null () in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let resp =
        raw_rpc g
          (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid
             (Paradice.Proto.Rread { vfd = 999; buf = 0x1000; len = 4 }))
      in
      match Paradice.Proto.decode_response resp with
      | Paradice.Proto.Rerr _ -> ()
      | _ -> Alcotest.fail "bad vfd must error")

let test_unknown_pid_rejected () =
  (* a request naming a process the hypervisor has never seen *)
  let m, g = boot_null () in
  run_in (M.engine m) (fun () ->
      let resp =
        raw_rpc g
          (Paradice.Proto.encode_request ~grant_ref:0 ~pid:424242
             (Paradice.Proto.Ropen { path = "/dev/null0" }))
      in
      match Paradice.Proto.decode_response resp with
      | Paradice.Proto.Rerr code ->
          Alcotest.(check (option string)) "EFAULT for unknown process"
            (Some "EFAULT")
            (Option.map Oskit.Errno.to_string (Oskit.Errno.of_code code))
      | _ -> Alcotest.fail "unknown pid must be rejected")

let test_open_non_exported_path_rejected () =
  (* the backend only serves explicitly exported device paths *)
  let m = M.create () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  (* a private driver-VM device that is NOT exported *)
  Oskit.Devfs.register
    (Oskit.Kernel.devfs (M.driver_kernel m))
    (Oskit.Defs.make_device ~path:"/dev/private0" ~cls:"secret" ~driver:"x"
       Oskit.Defs.default_ops);
  let g = M.add_guest m ~name:"g" () in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let resp =
        raw_rpc g
          (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid
             (Paradice.Proto.Ropen { path = "/dev/private0" }))
      in
      match Paradice.Proto.decode_response resp with
      | Paradice.Proto.Rerr code ->
          Alcotest.(check (option string)) "ENODEV for unexported path"
            (Some "ENODEV")
            (Option.map Oskit.Errno.to_string (Oskit.Errno.of_code code))
      | _ -> Alcotest.fail "unexported path must be refused")

let test_cold_then_warm_legs () =
  let m, g = boot_null () in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let noop () =
        ignore
          (raw_rpc g
             (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid
                Paradice.Proto.Rnoop))
      in
      noop ();
      let s1 = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
      Alcotest.(check int) "first exchange: both legs cold" 2
        s1.Paradice.Chan_pool.cold_legs;
      noop ();
      let s2 = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
      Alcotest.(check int) "back-to-back: no new cold legs" 2
        s2.Paradice.Chan_pool.cold_legs;
      (* go idle past the threshold: cold again *)
      Sim.Engine.wait 5_000.;
      noop ();
      let s3 = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
      Alcotest.(check int) "after idle: both legs cold again" 4
        s3.Paradice.Chan_pool.cold_legs)

let test_notification_collapse () =
  let m = M.create () in
  let mouse = M.attach_mouse m in
  let g = M.add_guest m ~name:"g" () in
  let sigio_count = ref 0 in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let fd = Fixtures.ok (Oskit.Vfs.openf g.M.kernel app "/dev/input/event0") in
      Oskit.Task.on_sigio app (fun () -> incr sigio_count);
      Fixtures.ok (Oskit.Vfs.fasync g.M.kernel app fd ~on:true));
  (* a burst of 10 events (after the subscription has settled) lands
     while no one consumes notifications: the pending interrupt must
     collapse them *)
  Sim.Engine.at (M.engine m) ~delay:5_000. (fun () ->
      Devices.Evdev.start_mouse mouse ~rate_hz:100_000. ~moves:5);
  Sim.Engine.run (M.engine m);
  Alcotest.(check bool)
    (Printf.sprintf "burst collapsed into few signals (got %d)" !sigio_count)
    true
    (!sigio_count >= 1 && !sigio_count <= 5)

let test_pool_cap_counts_rejections () =
  let cfg = { Paradice.Config.default with Paradice.Config.max_queued_ops = 3 } in
  let m = M.create ~config:cfg () in
  let (_ : Devices.Evdev.t) = M.attach_mouse m in
  let g = M.add_guest m ~name:"g" () in
  let busy = ref 0 in
  for i = 1 to 8 do
    Sim.Engine.spawn (M.engine m) (fun () ->
        let app = M.spawn_app m g.M.kernel ~name:(Printf.sprintf "p%d" i) in
        match Oskit.Vfs.openf g.M.kernel app "/dev/input/event0" with
        | Ok fd -> (
            let buf = Oskit.Task.alloc_buf app 64 in
            (* blocking read parks a worker *)
            match Oskit.Vfs.read g.M.kernel app fd ~buf ~len:64 with
            | Error Oskit.Errno.EBUSY -> incr busy
            | _ -> ())
        | Error Oskit.Errno.EBUSY -> incr busy
        | Error _ -> ())
  done;
  Sim.Engine.run ~until:100_000. (M.engine m);
  let s = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
  Alcotest.(check bool) "cap of 3 rejected 5 of 8" true (!busy = 5);
  Alcotest.(check int) "pool counted rejections" 5 s.Paradice.Chan_pool.rejected_busy

(* ---- ring transport: sequence pairing, coalescing, pipelining ---- *)

module Ch = Paradice.Channel

(* A raw channel between the machine's guest and driver VMs, with a
   scripted backend instead of the real CVD — lets a test control
   exactly when each response comes back. *)
let raw_channel ?config (m, g) =
  let config = Option.value config ~default:(M.config m) in
  Ch.create (M.engine m) ~config ~phys:m.M.phys ~guest_vm:g.M.vm
    ~driver_vm:m.M.driver_vm

let noop_req = Paradice.Proto.encode_request ~grant_ref:0 ~pid:0 Paradice.Proto.Rnoop

(* An echo backend that serves its first request only after
   [first_delay_us]; later requests are answered immediately.  Returns
   the executed-request counter (at-least-once retries make it
   observable when an operation ran twice). *)
let echo_server ch eng ~first_delay_us =
  let executions = ref 0 in
  Sim.Engine.spawn eng ~name:"echo-server" (fun () ->
      let first = ref true in
      let rec loop () =
        match Ch.next_request ch with
        | None -> ()
        | Some (slot, req) ->
            if !first then begin
              first := false;
              if first_delay_us > 0. then Sim.Engine.wait first_delay_us
            end;
            incr executions;
            Ch.respond ch ~slot req;
            loop ()
      in
      loop ());
  executions

let test_stale_response_discarded () =
  (* Regression: a late answer to a timed-out attempt used to be
     consumed as the resend's response (no sequence pairing).  The
     backend answers the first attempt after 600us against a 500us
     deadline: the frontend must time out, resend, discard the late
     seq-1 response when it finally lands, and pair only with its own
     resend's answer. *)
  let m, g = boot_null () in
  let config =
    { (M.config m) with Paradice.Config.rpc_timeout_us = 500.; rpc_retries = 2 }
  in
  let ch = raw_channel ~config (m, g) in
  let executions = echo_server ch (M.engine m) ~first_delay_us:600. in
  run_in (M.engine m) (fun () -> ignore (Ch.rpc ch noop_req));
  let s = Ch.stats ch in
  Alcotest.(check int) "first attempt timed out" 1 s.Ch.timeouts;
  Alcotest.(check int) "resent once" 1 s.Ch.retries;
  Alcotest.(check int) "late response discarded as stale" 1 s.Ch.stale_responses;
  Alcotest.(check int) "at-least-once: operation ran twice" 2 !executions

let test_dropped_response_leg_recovered () =
  (* chan.drop_resp loses the response doorbell (the descriptor stays
     published).  The resend after the deadline must get a fresh leg —
     a dropped doorbell must not leave interrupt-coalescing believing
     one is still in flight. *)
  let m, g = boot_null () in
  let inj = Sim.Fault_inject.create ~seed:7L () in
  Sim.Fault_inject.arm inj ~key:Ch.site_drop_resp (Sim.Fault_inject.Nth 1);
  let config =
    {
      (M.config m) with
      Paradice.Config.rpc_timeout_us = 500.;
      rpc_retries = 2;
      injector = Some inj;
    }
  in
  let ch = raw_channel ~config (m, g) in
  let executions = echo_server ch (M.engine m) ~first_delay_us:0. in
  run_in (M.engine m) (fun () -> ignore (Ch.rpc ch noop_req));
  let s = Ch.stats ch in
  Alcotest.(check int) "deadline recovered the lost completion" 1 s.Ch.timeouts;
  Alcotest.(check int) "resent once" 1 s.Ch.retries;
  Alcotest.(check int) "operation ran twice" 2 !executions

let test_notify_single_leg_and_kill () =
  (* M rapid notifications while the interrupt is pending must deliver
     exactly one leg; the consumer then observes the wrap-safe delta
     since its last observation.  After kill ~poison:true a blocked
     consumer wakes to None. *)
  let m, g = boot_null () in
  let ch = raw_channel (m, g) in
  let eng = M.engine m in
  let observed = ref [] in
  let ended = ref false in
  Sim.Engine.spawn eng ~name:"notify-consumer" (fun () ->
      let rec loop () =
        match Ch.next_notification ch with
        | Some n ->
            observed := n :: !observed;
            loop ()
        | None -> ended := true
      in
      loop ());
  (* burst of 7 in one callback: one interrupt leg, delta 7 *)
  Sim.Engine.at eng ~delay:10. (fun () ->
      for _ = 1 to 7 do
        Ch.notify ch
      done);
  (* a later burst of 3 after the first was consumed: second leg *)
  Sim.Engine.at eng ~delay:5_000. (fun () ->
      for _ = 1 to 3 do
        Ch.notify ch
      done);
  Sim.Engine.at eng ~delay:8_000. (fun () -> Ch.kill ~poison:true ch);
  Sim.Engine.run eng;
  Alcotest.(check (list int))
    "notification deltas observed (newest first)" [ 3; 7 ] !observed;
  Alcotest.(check bool) "consumer saw the death" true !ended;
  let s = Ch.stats ch in
  Alcotest.(check int) "10 events counted" 10 s.Ch.notifications;
  Alcotest.(check int) "collapsed into 2 interrupt legs" 2 s.Ch.legs

let test_ring_pipelining_coalesces_doorbells () =
  (* 4 concurrent producers on ONE channel: the ring must carry them
     simultaneously (depth > 1) and the doorbells must coalesce — far
     fewer than the 2 legs/op the serial exchange pays. *)
  let cfg =
    { Paradice.Config.default with Paradice.Config.channels_per_guest = 1 }
  in
  let m = M.create ~config:cfg () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  let pid = ref 0 in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      pid := app.Oskit.Defs.pid);
  let req = Paradice.Proto.encode_request ~grant_ref:0 ~pid:!pid Paradice.Proto.Rnoop in
  for _ = 1 to 4 do
    Sim.Engine.spawn (M.engine m) (fun () ->
        for _ = 1 to 5 do
          match Paradice.Proto.decode_response (raw_rpc g req) with
          | Paradice.Proto.Rok 0 -> ()
          | _ -> Alcotest.fail "noop must succeed"
        done)
  done;
  Sim.Engine.run (M.engine m);
  let s = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
  Alcotest.(check int) "all ops completed" 20 s.Paradice.Chan_pool.rpcs;
  Alcotest.(check bool)
    (Printf.sprintf "doorbells coalesced (%d legs for %d rpcs)"
       s.Paradice.Chan_pool.legs s.Paradice.Chan_pool.rpcs)
    true
    (s.Paradice.Chan_pool.legs < s.Paradice.Chan_pool.rpcs);
  let deep = ref 0 in
  Paradice.Chan_pool.iter_channels g.M.link.Paradice.Cvd_back.pool (fun c ->
      deep := max !deep (Ch.stats c).Ch.max_in_flight);
  Alcotest.(check bool)
    (Printf.sprintf "ring carried concurrent ops (max depth %d)" !deep)
    true (!deep >= 2)

(* [publishers] (default [Config.ring_slots] + 4) raw no-ops race for
   the slots of ONE ring, with tracing on: the first [ring_slots]
   claim a slot at once, the others block for one.  [during] may
   schedule events against the machine before the run.  Returns each
   publisher's outcome and the ring's occupancy samples, in emission
   order. *)
let slot_contention ?(publishers = Paradice.Config.ring_slots + 4)
    ?(during = fun _ -> ()) () =
  let tracer = Obs.Trace.create () in
  let config =
    { Paradice.Config.default with Paradice.Config.channels_per_guest = 1; tracer }
  in
  let m = M.create ~config () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  let pid = ref 0 in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      pid := app.Oskit.Defs.pid);
  Obs.Trace.reset tracer;
  let req = Paradice.Proto.encode_request ~grant_ref:0 ~pid:!pid Paradice.Proto.Rnoop in
  let outcomes = ref [] in
  for _ = 1 to publishers do
    Sim.Engine.spawn (M.engine m) (fun () ->
        let r =
          match Paradice.Proto.decode_response (raw_rpc g req) with
          | resp -> Ok resp
          | exception Oskit.Errno.Unix_error (e, _) -> Error e
        in
        outcomes := r :: !outcomes)
  done;
  during m;
  Sim.Engine.run (M.engine m);
  let occupancy =
    List.filter_map
      (fun c ->
        if String.ends_with ~suffix:".occupancy" c.Obs.Trace.k_name then
          Some (int_of_float c.Obs.Trace.k_value)
        else None)
      (Obs.Trace.counter_events tracer)
  in
  (m, !outcomes, occupancy)

let test_slot_pool_under_contention () =
  let _, outcomes, occupancy = slot_contention () in
  Alcotest.(check int) "all 12 completed" 12
    (List.length (List.filter (( = ) (Ok (Paradice.Proto.Rok 0))) outcomes));
  Alcotest.(check bool) "every sample within [0, ring_slots]" true
    (List.for_all (fun n -> n >= 0 && n <= Paradice.Config.ring_slots) occupancy);
  (* one sample per claim and per release, so each moves by one *)
  Alcotest.(check bool) "consecutive samples differ by one" true
    (snd
       (List.fold_left
          (fun (prev, ok) n -> (n, ok && abs (n - prev) = 1))
          (0, true) occupancy));
  Alcotest.(check int) "ring filled" Paradice.Config.ring_slots
    (List.fold_left max 0 occupancy);
  Alcotest.(check (option int)) "ring drained" (Some 0)
    (List.nth_opt occupancy (List.length occupancy - 1))

let test_kill_wakes_slot_waiters () =
  (* The kill lands while 8 publishers hold a slot and the rest wait
     for one.  Each holder fails and hands its slot on; each waiter it
     wakes sees the death, hands the slot on again and fails: nobody
     hangs.  With more waiters than slots, only that second hand-on
     reaches the last waiters. *)
  List.iter
    (fun waiters ->
      let publishers = Paradice.Config.ring_slots + waiters in
      let m, outcomes, occupancy =
        slot_contention ~publishers
          ~during:(fun m ->
            Sim.Engine.at (M.engine m) ~delay:1. (fun () -> M.kill_driver_vm m))
          ()
      in
      let check_int what = Alcotest.(check int) (Printf.sprintf "%d waiters: %s" waiters what) in
      check_int "every publisher failed with EIO" publishers
        (List.length (List.filter (( = ) (Error Oskit.Errno.EIO)) outcomes));
      (* one sample per claim and per release *)
      check_int "only the 8 holders ever claimed a slot"
        (2 * Paradice.Config.ring_slots) (List.length occupancy);
      check_int "ring was full at the kill" Paradice.Config.ring_slots
        (List.fold_left max 0 occupancy);
      check_int "every slot released" 0
        (List.nth occupancy (List.length occupancy - 1));
      Alcotest.(check bool)
        (Printf.sprintf "%d waiters: no process left hanging" waiters)
        false
        (Sim.Engine.deadlocked (M.engine m)))
    [ 4; Paradice.Config.ring_slots + 4 ]

let prop_proto_request_roundtrip =
  QCheck.Test.make ~name:"wire requests round-trip for all field values" ~count:300
    QCheck.(
      tup4 (int_bound 3) (int_bound 0xffffff) (int_bound 0xffffff) (int_bound 169))
    (fun (which, a, b, gref) ->
      let req =
        match which with
        | 0 -> Paradice.Proto.Rread { vfd = a land 0xffff; buf = b; len = a }
        | 1 -> Paradice.Proto.Rwrite { vfd = a land 0xffff; buf = b; len = a }
        | 2 ->
            Paradice.Proto.Rmmap
              { vfd = a land 0xffff; gva = b; len = a land 0xfffff; pgoff = a lsr 4 }
        | _ -> Paradice.Proto.Rioctl { vfd = a land 0xffff; cmd = b; arg = Int64.of_int a }
      in
      let bytes = Paradice.Proto.encode_request ~grant_ref:gref ~pid:(a land 0xffff) req in
      let req', gref', pid' = Paradice.Proto.decode_request bytes in
      req' = req && gref' = gref && pid' = a land 0xffff)

let prop_proto_junk_never_crashes =
  QCheck.Test.make ~name:"random wire bytes decode or raise Malformed" ~count:300
    QCheck.(string_of_size (QCheck.Gen.return 64))
    (fun junk ->
      let b = Bytes.make Paradice.Proto.slot_size '\000' in
      Bytes.blit_string junk 0 b 0 (String.length junk);
      match Paradice.Proto.decode_request b with
      | _ -> true
      | exception Paradice.Proto.Malformed _ -> true
      | exception _ -> false)

let test_concurrent_files_dispatch_correctly () =
  (* Regression: two applications in one guest using different devices
     concurrently — operations arrive on arbitrary pool channels and
     must reach the right backend file regardless of which worker
     carries them. *)
  let m = M.create () in
  let (_ : Devices.V4l2_drv.t) = M.attach_camera m () in
  let (_ : Devices.Pcm_drv.t) = M.attach_audio m in
  let g = M.add_guest m ~name:"media" () in
  let k = g.M.kernel in
  let frames = ref 0 and audio_done = ref false in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m k ~name:"cam" in
      let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/video0") in
      let req = Oskit.Task.alloc_buf app 8 in
      Oskit.Task.write_u32 app ~gva:req 2;
      let (_ : int) =
        Fixtures.ok
          (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_reqbufs
             ~arg:(Int64.of_int req))
      in
      let qb = Oskit.Task.alloc_buf app 8 in
      for i = 0 to 1 do
        Oskit.Task.write_u32 app ~gva:qb i;
        let (_ : int) =
          Fixtures.ok
            (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_qbuf
               ~arg:(Int64.of_int qb))
        in
        ()
      done;
      let (_ : int) =
        Fixtures.ok (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_streamon ~arg:0L)
      in
      for _ = 1 to 3 do
        let (_ : int) =
          Fixtures.ok
            (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_dqbuf
               ~arg:(Int64.of_int qb))
        in
        incr frames;
        let idx = Oskit.Task.read_u32 app ~gva:qb in
        Oskit.Task.write_u32 app ~gva:qb idx;
        let (_ : int) =
          Fixtures.ok
            (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_qbuf
               ~arg:(Int64.of_int qb))
        in
        ()
      done);
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m k ~name:"audio" in
      let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/snd/pcm0") in
      let buf = Oskit.Task.alloc_buf app 4096 in
      for _ = 1 to 8 do
        let (_ : int) = Fixtures.ok (Oskit.Vfs.write k app fd ~buf ~len:4096) in
        ()
      done;
      let (_ : int) =
        Fixtures.ok (Oskit.Vfs.ioctl k app fd ~cmd:Devices.Pcm_drv.drain_ioctl ~arg:0L)
      in
      audio_done := true);
  Sim.Engine.run (M.engine m);
  Alcotest.(check int) "camera frames delivered" 3 !frames;
  Alcotest.(check bool) "audio completed" true !audio_done

let per_channel_rpcs (g : M.guest) =
  let acc = ref [] in
  Paradice.Chan_pool.iter_channels g.M.link.Paradice.Cvd_back.pool (fun c ->
      acc := (Paradice.Channel.stats c).Paradice.Channel.rpcs :: !acc);
  List.rev !acc

let test_wedged_worker_times_out () =
  (* "back.wedge" on the second served op (the open is the first): the
     first ioctl's worker hangs forever, so it times out; the wedged
     ring's load penalty sends the next two to another ring. *)
  let inj = Sim.Fault_inject.create ~seed:1L () in
  Sim.Fault_inject.arm inj ~key:Paradice.Cvd_back.site_wedge (Sim.Fault_inject.Nth 2);
  let config =
    {
      Paradice.Config.default with
      Paradice.Config.injector = Some inj;
      rpc_timeout_us = 1000.;
      rpc_retries = 0;
    }
  in
  let m = M.create ~config () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  let results = ref [] and rpcs = ref [] in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let fd = Fixtures.ok (Oskit.Vfs.openf g.M.kernel app "/dev/null0") in
      for _ = 1 to 3 do
        rpcs := per_channel_rpcs g :: !rpcs;
        results := Oskit.Vfs.ioctl g.M.kernel app fd ~cmd:M.null_ioctl ~arg:0L :: !results
      done;
      rpcs := per_channel_rpcs g :: !rpcs);
  let errno = Alcotest.testable Oskit.Errno.pp ( = ) in
  Alcotest.(check (list (result int errno)))
    "timed out, then served"
    [ Error Oskit.Errno.ETIMEDOUT; Ok 0; Ok 0 ]
    (List.rev !results);
  (match List.rev !rpcs with
  | [ before; after_wedge; _; final ] ->
      let wedged = List.map2 ( - ) after_wedge before
      and later = List.map2 ( - ) final after_wedge in
      Alcotest.(check bool) "later ioctls avoid the wedged ring" true
        (List.for_all2 (fun w l -> w = 0 || l = 0) wedged later)
  | _ -> Alcotest.fail "missing per-ring snapshots");
  Alcotest.(check bool) "the wedged worker never wakes" true
    (Sim.Engine.deadlocked (M.engine m))

(* ---- the private-copy contract: one descriptor copy per side per
   domain, filled and consumed with no suspension in between ---- *)

(* A driver-VM test device whose ioctl returns its argument, exported
   to [g]: every op's result is its own, so an answer read back into
   the wrong process shows. *)
let echo_ioctl = Oskit.Ioctl_num.io ~typ:'e' ~nr:1

let attach_echo m (g : M.guest) =
  let drv =
    Oskit.Defs.make_device ~path:"/dev/echo0" ~cls:"test" ~driver:"echo"
      {
        Oskit.Defs.default_ops with
        Oskit.Defs.fop_kinds = [ Oskit.Os_flavor.Open; Release; Ioctl ];
        fop_ioctl = (fun _ _ ~cmd:_ ~arg -> Int64.to_int arg);
      }
  in
  Oskit.Devfs.register (Oskit.Kernel.devfs (M.driver_kernel m)) drv;
  Paradice.Cvd_back.export m.M.backend "/dev/echo0";
  ignore (Paradice.Cvd_front.export g.M.frontend drv : Oskit.Defs.device)

(* [procs] processes over the default 4-ring pool.  At six, rings carry
   two ops at once: a request coalesces onto another's doorbell or
   waits for a backend busy with another slot, a response rides
   another's leg, and (hybrid) a descriptor is picked up before its
   own signal lands.  The ring wait spans keep the stages tiling, to
   the last bit: at forty hybrid processes, summing the stage
   durations instead of sweeping them read a gap of 8.9e-16 us. *)
let test_copies_keep_results_apart ~config ~procs () =
  let tracer = Obs.Trace.create () in
  let m = M.create ~config:{ config with Paradice.Config.tracer } () in
  let g = M.add_guest m ~name:"g" () in
  attach_echo m g;
  let k = g.M.kernel in
  let per_proc = 20 in
  let wrong = ref [] and answered = ref 0 in
  let in_flight = ref 0 and most_in_flight = ref 0 in
  for p = 1 to procs do
    Sim.Engine.spawn (M.engine m) (fun () ->
        let app = M.spawn_app m k ~name:(Printf.sprintf "app%d" p) in
        let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/echo0") in
        for i = 1 to per_proc do
          let arg = (p * 1000) + i in
          incr in_flight;
          most_in_flight := max !most_in_flight !in_flight;
          (match Oskit.Vfs.ioctl k app fd ~cmd:echo_ioctl ~arg:(Int64.of_int arg) with
          | Ok r when r = arg -> incr answered
          | Ok r -> wrong := (arg, r) :: !wrong
          | Error e -> Alcotest.failf "ioctl %d: %s" arg (Oskit.Errno.to_string e));
          decr in_flight;
          (* stagger the processes so their ops overlap unevenly *)
          Sim.Engine.wait (float_of_int (((p * 7) + i) mod 5))
        done;
        Fixtures.ok (Oskit.Vfs.close k app fd))
  done;
  Sim.Engine.run (M.engine m);
  Alcotest.(check (list (pair int int))) "no op got another op's result" [] !wrong;
  Alcotest.(check int) "every op answered" (procs * per_proc) !answered;
  let busy_rings = List.length (List.filter (fun n -> n > 0) (per_channel_rpcs g)) in
  Alcotest.(check bool)
    (Printf.sprintf "ops interleaved (%d of 4 rings used, %d ops at once)" busy_rings
       !most_in_flight)
    true
    (busy_rings >= 2 && !most_in_flight >= 2);
  let r = Obs.Trace.reconcile tracer in
  Alcotest.(check bool) "every op reconciled" true
    (r.Obs.Trace.r_ops >= procs * (per_proc + 2));
  Alcotest.(check (float 0.)) "stage spans tile each op" 0. r.Obs.Trace.r_max_gap_us

let test_unencodable_open_refused_before_rpc () =
  let m, g = boot_null () in
  let long = "/dev/" ^ String.make 295 'x' in
  let drv =
    Oskit.Defs.make_device ~path:long ~cls:"test" ~driver:"long"
      { Oskit.Defs.default_ops with Oskit.Defs.fop_kinds = [ Oskit.Os_flavor.Open ] }
  in
  ignore (Paradice.Cvd_front.export g.M.frontend drv : Oskit.Defs.device);
  let pool = g.M.link.Paradice.Cvd_back.pool and k = g.M.kernel in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m k ~name:"app" in
      let rpcs () = (Paradice.Chan_pool.stats pool).Paradice.Chan_pool.rpcs in
      let rpcs0 = rpcs () and t0 = Sim.Engine.now (M.engine m) in
      (match Oskit.Vfs.openf k app long with
      | Error Oskit.Errno.ENAMETOOLONG -> ()
      | Error e -> Alcotest.failf "open failed with %s" (Oskit.Errno.to_string e)
      | Ok _ -> Alcotest.fail "a 300-byte path has no wire form");
      Alcotest.(check int) "no rpc issued" rpcs0 (rpcs ());
      Alcotest.(check (float 0.)) "no time passed but the guest's own syscall entry"
        (Oskit.Kernel.syscall_cost k)
        (Sim.Engine.now (M.engine m) -. t0))

let test_forwarded_ioctl_allocation () =
  let m, g = boot_null () in
  let k = g.M.kernel and ops = 1000 in
  let words =
    run_in (M.engine m) (fun () ->
        let app = M.spawn_app m k ~name:"app" in
        let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/null0") in
        let ioctl () =
          ignore (Fixtures.ok (Oskit.Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L) : int)
        in
        for _ = 1 to 200 do
          ioctl ()
        done;
        let before = Gc.minor_words () in
        for _ = 1 to ops do
          ioctl ()
        done;
        (Gc.minor_words () -. before) /. float_of_int ops)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per forwarded null ioctl (at most 361)" words)
    true (words <= 361.)

(* The private copies are per domain and shared by every ring, so the
   encoders' whole-slot zero fill is what keeps one guest's descriptor
   bytes out of another guest's slot.  Guest A sends a long [Ropen],
   answered with a long batch reply; guest B then sends a null ioctl on
   its own ring.  On both sides of B's exchange, every byte below the
   trace word is B's own message, zero past its end. *)
let test_zero_fill_keeps_guests_apart () =
  let module P = Paradice.Proto in
  let m = M.create () in
  let ga = M.add_guest m ~name:"a" () and gb = M.add_guest m ~name:"b" () in
  let channel (g : M.guest) =
    Paradice.Channel.create (M.engine m) ~config:(M.config m) ~phys:m.M.phys
      ~guest_vm:g.M.vm ~driver_vm:m.M.driver_vm
  in
  let cha = channel ga and chb = channel gb in
  let long_open = P.Ropen { path = "/dev/" ^ String.make 240 'a' }
  and long_reply =
    P.Rbatch_reply (List.init P.max_batch_ops (fun i -> P.Rok (0x0101_0101 + i)))
  and null = P.Rioctl { vfd = 3; cmd = M.null_ioctl; arg = 0L } in
  let seen_a = ref Bytes.empty and seen_b = ref Bytes.empty in
  let serve ch seen resp =
    Sim.Engine.spawn (M.engine m) (fun () ->
        match Paradice.Channel.next_request ch with
        | None -> Alcotest.fail "ring died"
        | Some (slot, copy) ->
            seen := Bytes.copy copy;
            Paradice.Channel.respond_with ch ~slot (fun copy ->
                P.encode_response_into copy resp))
  in
  serve cha seen_a long_reply;
  serve chb seen_b (P.Rok 0);
  let call ch req =
    Paradice.Channel.call ch ~trace:0
      ~encode:(fun copy -> P.encode_request_into copy ~grant_ref:1 ~pid:7 req)
      ~decode:Bytes.copy
  in
  let answer_a, answer_b =
    run_in (M.engine m) (fun () ->
        let a = call cha long_open in
        (a, call chb null))
  in
  let check side ~earlier ~got ~fresh =
    let leaked = ref false in
    for i = 0 to P.trace_off - 1 do
      if Bytes.get fresh i = '\000' && Bytes.get earlier i <> '\000' then leaked := true
    done;
    Alcotest.(check bool) (side ^ ": A's message reaches past B's") true !leaked;
    Alcotest.(check string)
      (side ^ ": B's own message below the trace word, zero past its end")
      (Bytes.sub_string fresh 0 P.trace_off)
      (Bytes.sub_string got 0 P.trace_off)
  in
  check "request" ~earlier:!seen_a ~got:!seen_b
    ~fresh:(P.encode_request ~grant_ref:1 ~pid:7 null);
  check "response" ~earlier:answer_a ~got:answer_b ~fresh:(P.encode_response (P.Rok 0))

(* Shared-memory accesses per forwarded null ioctl, after warm-up: each
   ring access touches one whole record, so the op makes 16 (the
   grant declare's free-slot read and record write, the release's read
   and clear, and 12 on the ring: one write per descriptor and one per
   state change, one read per descriptor and one per state scan).
   Every access is a held translation, so it counts a TLB hit and no
   miss or walk, under each signalling preset. *)
let test_forwarded_ioctl_accesses ~config () =
  let m = M.create ~config () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  let k = g.M.kernel and ops = 200 in
  let audit = Hypervisor.Hyp.audit (M.hyp m) in
  let counts () = Hypervisor.Audit.(tlb_hits audit, tlb_misses audit, walks_performed audit) in
  let (h0, m0, w0), (h1, m1, w1) =
    run_in (M.engine m) (fun () ->
        let app = M.spawn_app m k ~name:"app" in
        let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/null0") in
        let ioctl () =
          ignore (Fixtures.ok (Oskit.Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L) : int)
        in
        for _ = 1 to 50 do
          ioctl ()
        done;
        let before = counts () in
        for _ = 1 to ops do
          ioctl ()
        done;
        (before, counts ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f TLB hits per forwarded null ioctl (at most 16)"
       (float_of_int (h1 - h0) /. float_of_int ops))
    true (h1 - h0 <= 16 * ops);
  Alcotest.(check int) "no TLB miss" 0 (m1 - m0);
  Alcotest.(check int) "no walk" 0 (w1 - w0)

let suites =
  [
    ( "channel.failure_injection",
      [
        Alcotest.test_case "malformed request rejected" `Quick test_malformed_request_rejected;
        Alcotest.test_case "bad vfd rejected" `Quick test_bad_vfd_rejected;
        Alcotest.test_case "unknown pid rejected" `Quick test_unknown_pid_rejected;
        Alcotest.test_case "unexported path refused" `Quick test_open_non_exported_path_rejected;
        QCheck_alcotest.to_alcotest prop_proto_junk_never_crashes;
      ] );
    ( "channel.timing",
      [
        Alcotest.test_case "cold/warm leg accounting" `Quick test_cold_then_warm_legs;
        Alcotest.test_case "notification collapse" `Quick test_notification_collapse;
        Alcotest.test_case "pool cap rejections" `Quick test_pool_cap_counts_rejections;
      ] );
    ( "channel.ring",
      [
        Alcotest.test_case "stale response discarded" `Quick
          test_stale_response_discarded;
        Alcotest.test_case "dropped response leg recovered" `Quick
          test_dropped_response_leg_recovered;
        Alcotest.test_case "notify collapses to one leg; kill wakes" `Quick
          test_notify_single_leg_and_kill;
        Alcotest.test_case "ring pipelines and coalesces doorbells" `Quick
          test_ring_pipelining_coalesces_doorbells;
        Alcotest.test_case "slot pool under contention" `Quick
          test_slot_pool_under_contention;
        Alcotest.test_case "kill wakes slot waiters" `Quick
          test_kill_wakes_slot_waiters;
      ] );
    ("channel.proto", [ QCheck_alcotest.to_alcotest prop_proto_request_roundtrip ]);
    ( "channel.dispatch",
      [
        Alcotest.test_case "concurrent files, any worker" `Quick
          test_concurrent_files_dispatch_correctly;
        Alcotest.test_case "wedged worker times out" `Quick
          test_wedged_worker_times_out;
      ] );
    ( "channel.copies",
      [
        Alcotest.test_case "interleaved ops keep their own results" `Quick
          (test_copies_keep_results_apart ~config:Paradice.Config.default ~procs:4);
        Alcotest.test_case "six processes on four rings tile" `Quick
          (test_copies_keep_results_apart ~config:Paradice.Config.default ~procs:6);
        Alcotest.test_case "six hybrid processes on four rings tile" `Quick
          (test_copies_keep_results_apart ~config:Paradice.Config.hybrid ~procs:6);
        Alcotest.test_case "forty hybrid processes on four rings tile" `Quick
          (test_copies_keep_results_apart ~config:Paradice.Config.hybrid ~procs:40);
        Alcotest.test_case "unencodable open refused before any rpc" `Quick
          test_unencodable_open_refused_before_rpc;
        Alcotest.test_case "forwarded null ioctl allocation" `Quick
          test_forwarded_ioctl_allocation;
        Alcotest.test_case "slot zero fill keeps guests apart" `Quick
          test_zero_fill_keeps_guests_apart;
        Alcotest.test_case "forwarded null ioctl accesses, interrupts" `Quick
          (test_forwarded_ioctl_accesses ~config:Paradice.Config.default);
        Alcotest.test_case "forwarded null ioctl accesses, hybrid" `Quick
          (test_forwarded_ioctl_accesses ~config:Paradice.Config.hybrid);
        Alcotest.test_case "forwarded null ioctl accesses, polling" `Quick
          (test_forwarded_ioctl_accesses ~config:Paradice.Config.polling);
      ] );
  ]
