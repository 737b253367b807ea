(* Fault injection, crash containment and session recovery: the driver
   VM dies (or misbehaves) at deterministic points and the guest must
   observe clean errors — never hangs, never corruption — then recover
   fully once the driver VM reboots (§4.1, §7.2). *)

open Oskit
open Fixtures
module M = Paradice.Machine
module Config = Paradice.Config
module Channel = Paradice.Channel
module Cvd_back = Paradice.Cvd_back
module Cvd_front = Paradice.Cvd_front

let errno = Alcotest.testable Errno.pp ( = )

(* ---- Sim.Mailbox.recv_timeout regression ---- *)

(* A waiter whose timeout fired used to stay in the queue disarmed: the
   next send targeted it and the message vanished.  The timed-out
   waiter must no longer count as waiting, so later sends skip it and
   reach live receivers. *)
let test_mailbox_timeout_waiter_removed () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create eng in
  let log = ref [] in
  Sim.Engine.spawn eng (fun () ->
      match Sim.Mailbox.recv_timeout mb ~timeout:10. with
      | None -> log := "timeout" :: !log
      | Some v -> log := v :: !log);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 20.;
      Alcotest.(check int) "timed-out waiter left no residue" 0
        (Sim.Mailbox.waiting mb);
      Sim.Mailbox.send mb "msg";
      match Sim.Mailbox.recv_timeout mb ~timeout:5. with
      | Some v -> log := v :: !log
      | None -> log := "lost" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "timeout then delivery"
    [ "timeout"; "msg" ] (List.rev !log)

let test_mailbox_timeout_send_after_new_waiter () =
  (* a send while a fresh waiter coexists with a cancelled one must
     reach the fresh waiter, not the corpse *)
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create eng in
  let got = ref None in
  Sim.Engine.spawn eng (fun () ->
      (* this waiter times out at t=5 *)
      ignore (Sim.Mailbox.recv_timeout mb ~timeout:5.);
      (* ...and immediately waits again, without a deadline *)
      got := Some (Sim.Mailbox.recv mb));
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 10.;
      Sim.Mailbox.send mb 42);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "second waiter got the message" (Some 42) !got

(* ---- Fault_inject determinism ---- *)

let test_fault_inject_nth_and_determinism () =
  let inj = Sim.Fault_inject.create ~seed:7L () in
  Sim.Fault_inject.arm inj ~key:"x" (Sim.Fault_inject.Nth 3);
  let seq = List.init 5 (fun _ -> Sim.Fault_inject.fires inj ~key:"x") in
  Alcotest.(check (list bool)) "Nth 3 fires exactly once, on the 3rd visit"
    [ false; false; true; false; false ] seq;
  Alcotest.(check int) "fired count" 1 (Sim.Fault_inject.fired inj ~key:"x");
  (* Prob draws are reproducible across injectors with the same seed *)
  let draw seed =
    let i = Sim.Fault_inject.create ~seed () in
    Sim.Fault_inject.arm i ~key:"p" (Sim.Fault_inject.Prob 0.5);
    List.init 64 (fun _ -> Sim.Fault_inject.fires i ~key:"p")
  in
  Alcotest.(check (list bool)) "same seed, same fault schedule"
    (draw 99L) (draw 99L);
  Alcotest.(check bool) "different seed, different schedule" true
    (draw 99L <> draw 100L)

(* ---- crash containment ---- *)

(* The acceptance core: the driver VM dies while a guest read is in
   flight.  The read must fail with EIO (not hang, not crash), the
   session faults, and every outstanding grant is revoked. *)
let test_kill_mid_rpc_blocking_read () =
  let m = M.create () in
  let (_ : Devices.Evdev.t) = M.attach_mouse m in
  let g = M.add_guest m ~name:"g1" () in
  let result = ref None in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"reader" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/input/event0") in
      let buf = Task.alloc_buf app 256 in
      (* no events ever arrive: this read blocks until the crash *)
      result := Some (Vfs.read k app fd ~buf ~len:256));
  Sim.Engine.at (M.engine m) ~delay:5_000. (fun () -> M.kill_driver_vm m);
  Sim.Engine.run (M.engine m);
  (match !result with
  | Some (Error e) -> Alcotest.check errno "in-flight read fails with EIO" Errno.EIO e
  | Some (Ok _) -> Alcotest.fail "read succeeded against a dead driver VM"
  | None -> Alcotest.fail "read still blocked after the crash");
  Alcotest.(check bool) "session faulted" true
    (Cvd_front.session g.M.frontend = Cvd_front.Faulted);
  let fs = Cvd_front.fault_stats g.M.frontend in
  Alcotest.(check bool) "the read's grant was revoked" true
    (fs.Cvd_front.grants_revoked >= 1);
  (match Hypervisor.Hyp.grant_table_of (M.hyp m) g.M.vm with
  | Some table ->
      Alcotest.(check int) "no grant survives the crash" 0
        (Hypervisor.Grant_table.active_entries table)
  | None -> Alcotest.fail "guest has no grant table")

(* A corrupted request frame must be rejected by the backend (EINVAL),
   not crash it: the next operation on the same channel succeeds. *)
let test_corrupt_frame_rejected_backend_survives () =
  let inj = Sim.Fault_inject.create ~seed:11L () in
  let config = { Config.default with Config.injector = Some inj } in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      Sim.Fault_inject.arm inj ~key:Channel.site_corrupt_req
        (Sim.Fault_inject.Nth 1);
      (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error e -> Alcotest.check errno "corrupted frame rejected" Errno.EINVAL e
      | Ok _ -> Alcotest.fail "corrupted frame was executed");
      let rc = ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L) in
      Alcotest.(check int) "backend still serving afterwards" 0 rc;
      Alcotest.(check bool) "session unaffected" true
        (Cvd_front.session g.M.frontend = Cvd_front.Healthy))

(* A lost request under a deadline is resent transparently. *)
let test_dropped_request_retried () =
  let inj = Sim.Fault_inject.create ~seed:13L () in
  let config =
    {
      Config.default with
      Config.injector = Some inj;
      rpc_timeout_us = 500.;
      rpc_retries = 2;
    }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      Sim.Fault_inject.arm inj ~key:Channel.site_drop_req
        (Sim.Fault_inject.Nth 1);
      let rc = ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L) in
      Alcotest.(check int) "operation survives a lost request" 0 rc);
  let _, _, stats = Cvd_front.stats g.M.frontend in
  Alcotest.(check int) "one timeout" 1 stats.Paradice.Chan_pool.timeouts;
  Alcotest.(check int) "one resend" 1 stats.Paradice.Chan_pool.retries

(* A wedged backend worker surfaces ETIMEDOUT to the application, but
   does NOT fault the session: one stuck driver thread is not a dead
   driver VM. *)
let test_wedged_worker_times_out () =
  let inj = Sim.Fault_inject.create ~seed:17L () in
  let config =
    {
      Config.default with
      Config.injector = Some inj;
      channels_per_guest = 1;
      rpc_timeout_us = 500.;
      rpc_retries = 1;
    }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      Sim.Fault_inject.arm inj ~key:Cvd_back.site_wedge
        (Sim.Fault_inject.Nth 1);
      match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error e ->
          Alcotest.check errno "deadline exhausted" Errno.ETIMEDOUT e;
          Alcotest.(check bool) "session stays healthy" true
            (Cvd_front.session g.M.frontend = Cvd_front.Healthy)
      | Ok _ -> Alcotest.fail "wedged worker answered")

(* The watchdog detects a silent driver-VM death (no poisoned channels,
   requests simply vanish) after the configured number of missed
   heartbeats. *)
let test_watchdog_detects_silent_death () =
  let config =
    {
      Config.default with
      Config.heartbeat_interval_us = 1_000.;
      heartbeat_miss_limit = 2;
      rpc_retries = 0;
    }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  Sim.Engine.spawn (M.engine m) (fun () ->
      Sim.Engine.wait 3_500.;
      Alcotest.(check bool) "healthy while the driver VM lives" true
        (Cvd_front.session g.M.frontend = Cvd_front.Healthy);
      M.kill_driver_vm ~poison:false m);
  (* the watchdog loops forever, so bound the run *)
  Sim.Engine.run ~until:60_000. (M.engine m);
  Alcotest.(check bool) "watchdog faulted the session" true
    (Cvd_front.session g.M.frontend = Cvd_front.Faulted);
  let fs = Cvd_front.fault_stats g.M.frontend in
  Alcotest.(check bool) "at least miss_limit heartbeats missed" true
    (fs.Cvd_front.heartbeat_misses >= 2);
  Cvd_front.stop_watchdog g.M.frontend

(* Hypervisor-installed cross-VM mappings are torn down when the
   session faults: nothing the dead driver VM set up stays usable. *)
let test_fault_tears_down_mappings () =
  let m = M.create () in
  let (_ : M.gpu_attachment) = M.attach_gpu m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"gles" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/dri/card0") in
      let handle =
        gem_create k app fd ~size:Memory.Addr.page_size
          ~domain:Devices.Radeon_ioctl.domain_vram
      in
      let gva = gem_mmap k app fd ~handle in
      (* touch the page so the hypervisor installs the mapping *)
      Vfs.user_write k app ~gva (Bytes.make 8 'x');
      Alcotest.(check bool) "page mapped via the hypervisor" true
        (Hypervisor.Hyp.mapped_via_hypervisor (M.hyp m) ~target:g.M.vm
           ~pt:app.Defs.pt ~gva);
      M.kill_driver_vm m;
      (match Vfs.ioctl k app fd ~cmd:Devices.Radeon_ioctl.gem_wait_idle ~arg:0L with
      | Error Errno.EIO | Error Errno.ENODEV -> ()
      | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)
      | Ok _ -> Alcotest.fail "operation succeeded on a dead driver VM");
      Alcotest.(check bool) "mapping torn down on fault" false
        (Hypervisor.Hyp.mapped_via_hypervisor (M.hyp m) ~target:g.M.vm
           ~pt:app.Defs.pt ~gva);
      let fs = Cvd_front.fault_stats g.M.frontend in
      Alcotest.(check bool) "teardown accounted" true
        (fs.Cvd_front.mappings_torn >= 1))

(* ---- recovery ---- *)

(* The full §7.2 story: kill the driver VM under load, observe clean
   errors, reboot it, and verify a re-opened device file completes the
   same operation that was in flight at the crash. *)
let test_kill_reboot_reopen () =
  let m = M.create () in
  let (_ : Defs.device) = M.attach_null m in
  let (_ : Devices.Evdev.t) = M.attach_mouse m in
  let g = M.add_guest m ~name:"g1" () in
  let read_result = ref None in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"reader" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/input/event0") in
      let buf = Task.alloc_buf app 256 in
      read_result := Some (Vfs.read k app fd ~buf ~len:256));
  Sim.Engine.at (M.engine m) ~delay:5_000. (fun () -> M.kill_driver_vm m);
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      Alcotest.(check int) "ioctl works before the crash" 0
        (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L));
      Sim.Engine.wait 10_000. (* the crash happens at t=5000 *);
      (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error e -> Alcotest.check errno "stale fd fails fast" Errno.ENODEV e
      | Ok _ -> Alcotest.fail "stale fd still worked");
      (match Vfs.openf k app "/dev/null0" with
      | Error e -> Alcotest.check errno "no opens while faulted" Errno.ENODEV e
      | Ok _ -> Alcotest.fail "open succeeded while faulted");
      M.reboot_driver_vm m;
      Alcotest.(check int) "one reboot recorded" 1 (M.driver_generation m);
      Alcotest.(check bool) "session reattached" true
        (Cvd_front.session g.M.frontend = Cvd_front.Healthy);
      (* the same operation that failed now succeeds on a fresh open *)
      let fd2 = ok (Vfs.openf k app "/dev/null0") in
      Alcotest.(check int) "re-opened device file serves the op" 0
        (ok (Vfs.ioctl k app fd2 ~cmd:M.null_ioctl ~arg:0L));
      (* the stale fd still fails, and closing it cleans up locally *)
      (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error e -> Alcotest.check errno "stale fd stays stale" Errno.ENODEV e
      | Ok _ -> Alcotest.fail "stale fd resurrected");
      ok (Vfs.close k app fd);
      ok (Vfs.close k app fd2));
  match !read_result with
  | Some (Error Errno.EIO) -> ()
  | Some (Error e) -> Alcotest.failf "read failed with %s" (Errno.to_string e)
  | Some (Ok _) -> Alcotest.fail "blocked read succeeded across the crash"
  | None -> Alcotest.fail "blocked read never returned"

(* ---- spans under fault injection ---- *)

(* A dropped request doorbell exhausts the deadline: the operation's
   span must close with an error status and nothing may stay open —
   the tracer's view of a fault is as clean as the errno the app saw. *)
let test_timed_out_op_span_closes_with_error () =
  let inj = Sim.Fault_inject.create ~seed:31L () in
  let tracer = Obs.Trace.create () in
  let config =
    {
      Config.default with
      Config.injector = Some inj;
      tracer;
      rpc_timeout_us = 500.;
      rpc_retries = 0;
    }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      Sim.Fault_inject.arm inj ~key:Channel.site_drop_req
        (Sim.Fault_inject.Nth 1);
      match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error e -> Alcotest.check errno "dropped doorbell times out" Errno.ETIMEDOUT e
      | Ok _ -> Alcotest.fail "operation survived a dropped doorbell without retries");
  Alcotest.(check int) "no span leaks open" 0 (Obs.Trace.open_count tracer);
  let failed_ops =
    List.filter
      (fun c -> c.Obs.Trace.c_cat = "op" && c.Obs.Trace.c_status <> "ok")
      (Obs.Trace.completed tracer)
  in
  Alcotest.(check int) "exactly the timed-out op closed with error" 1
    (List.length failed_ops);
  let _, _, stats = Cvd_front.stats g.M.frontend in
  Alcotest.(check int) "the drop was counted" 1 stats.Paradice.Chan_pool.dropped_legs

(* A driver-VM crash aborts every open span with an error status, and
   a reattached session starts clean: no trace state crosses the
   reboot, and post-recovery operations reconcile again. *)
let test_crash_aborts_spans_reattach_is_clean () =
  let tracer = Obs.Trace.create () in
  let config = { Config.default with Config.tracer = tracer } in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let (_ : Devices.Evdev.t) = M.attach_mouse m in
  let g = M.add_guest m ~name:"g1" () in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"reader" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/input/event0") in
      let buf = Task.alloc_buf app 256 in
      (* blocks with its op span open until the crash *)
      ignore (Vfs.read k app fd ~buf ~len:256));
  Sim.Engine.at (M.engine m) ~delay:5_000. (fun () -> M.kill_driver_vm m);
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      Sim.Engine.wait 10_000. (* the crash happens at t=5000 *);
      Alcotest.(check int) "fault closed every open span" 0
        (Obs.Trace.open_count tracer);
      let aborted =
        List.filter
          (fun c -> String.starts_with ~prefix:"error:" c.Obs.Trace.c_status)
          (Obs.Trace.completed tracer)
      in
      Alcotest.(check bool) "in-flight spans carry the fault reason" true
        (List.length aborted >= 1);
      M.reboot_driver_vm m;
      Alcotest.(check int) "reattach inherits no open span" 0
        (Obs.Trace.open_count tracer);
      let fd2 = ok (Vfs.openf k app "/dev/null0") in
      Alcotest.(check int) "post-recovery op serves" 0
        (ok (Vfs.ioctl k app fd2 ~cmd:M.null_ioctl ~arg:0L)));
  Alcotest.(check int) "nothing open at the end" 0 (Obs.Trace.open_count tracer);
  let r = Obs.Trace.reconcile tracer in
  Alcotest.(check bool) "post-recovery ops reconcile" true (r.Obs.Trace.r_ops >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "stage tiling survives the crash (gap %.3f us)"
       r.Obs.Trace.r_max_gap_us)
    true
    (r.Obs.Trace.r_max_gap_us <= 1.)

(* An operation that outlives a session fault must not release its
   grant on the way out: the fault revoked the table wholesale, and
   after the reattach its slot can hold a later operation's group.  Op
   X, a null ioctl, hangs on a silently dead driver VM past the
   watchdog's fault and the reboot; op Y's mouse read then declares
   into X's old slot, and X's deadline expires before Y's event
   arrives.  Y must still read its event, with no grant fault charged
   to the honest guest. *)
let test_fault_outlived_op_keeps_later_grant () =
  let config =
    {
      Config.default with
      Config.rpc_timeout_us = 20_000.;
      rpc_retries = 0;
      heartbeat_interval_us = 1_000.;
      heartbeat_miss_limit = 2;
      driver_reboot_us = 1_000.;
    }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let mouse = M.attach_mouse m in
  let g = M.add_guest m ~name:"g1" () in
  let eng = M.engine m in
  let wait_until t = Sim.Engine.wait (t -. Sim.Engine.now eng) in
  let x_result = ref None and y_result = ref None in
  Sim.Engine.spawn eng (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"x" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      wait_until 2_200.;
      x_result := Some (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L));
  Sim.Engine.at eng ~delay:1_990. (fun () -> M.kill_driver_vm ~poison:false m);
  Sim.Engine.spawn eng (fun () ->
      wait_until 8_000.;
      Alcotest.(check bool) "the watchdog faulted the session" true
        (Cvd_front.session g.M.frontend = Cvd_front.Faulted);
      M.reboot_driver_vm m;
      wait_until 12_000.;
      let app = M.spawn_app m g.M.kernel ~name:"y" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/input/event0") in
      let buf = Task.alloc_buf app 64 in
      y_result := Some (Vfs.read k app fd ~buf ~len:64));
  Sim.Engine.at eng ~delay:25_000. (fun () ->
      Devices.Evdev.inject mouse
        { Devices.Evdev.time_us = 25_000.; ev_type = Devices.Evdev.ev_rel;
          code = Devices.Evdev.rel_x; value = 3 });
  Sim.Engine.run ~until:60_000. eng;
  Cvd_front.stop_watchdog g.M.frontend;
  (match !x_result with
  | Some (Error e) -> Alcotest.check errno "X outlived the fault, then timed out" Errno.ETIMEDOUT e
  | Some (Ok _) -> Alcotest.fail "X was answered by a dead driver VM"
  | None -> Alcotest.fail "X never finished");
  (match !y_result with
  | Some (Ok n) -> Alcotest.(check int) "Y read its event" Devices.Evdev.event_bytes n
  | Some (Error e) -> Alcotest.failf "Y failed with %s" (Errno.to_string e)
  | None -> Alcotest.fail "Y never finished");
  Alcotest.(check int) "no grant fault charged to the guest" 0
    g.M.link.Cvd_back.grant_faults;
  Alcotest.(check int) "and no misbehaviour score" 0 g.M.link.Cvd_back.score

(* ---- poll forwarding backoff (ring starvation) ---- *)

(* A device that is never ready used to turn the frontend's forwarded
   poll into a back-to-back RPC spin on the ring.  With the backoff,
   the spin is rate-limited and a concurrent caller on the same single
   channel still gets every operation through. *)
let test_poll_spin_does_not_starve_ring () =
  let config =
    {
      Config.default with
      Config.channels_per_guest = 1;
      poll_forward_backoff_us = 200.;
    }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  let ioctls_done = ref 0 in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"poller" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      (* /dev/null0 never becomes ready: this forwarded poll loops *)
      ignore (Vfs.poll k app fd ~want_in:true ~want_out:false ~timeout:1_000_000.));
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"worker" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      for _ = 1 to 50 do
        Alcotest.(check int) "op completes under the poll spin" 0
          (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L));
        incr ioctls_done
      done);
  Sim.Engine.run ~until:100_000. (M.engine m);
  Alcotest.(check int) "no starvation: every concurrent op completed" 50
    !ioctls_done;
  let forwarded, _, _ = Cvd_front.stats g.M.frontend in
  (* 100 ms / (rpc + 200 us backoff) bounds the poll RPC rate; without
     the backoff the same window fits thousands of spins *)
  Alcotest.(check bool)
    (Printf.sprintf "poll RPC rate bounded by the backoff (%d forwarded)" forwarded)
    true (forwarded < 700)

(* The mid-RPC crash site: "cvd.crash" fires inside a backend worker
   between executing the operation and responding, and the on_fire
   hook (armed by Machine.create) performs the real kill. *)
let test_crash_site_kills_mid_rpc () =
  let inj = Sim.Fault_inject.create ~seed:23L () in
  let config = { Config.default with Config.injector = Some inj } in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      Sim.Fault_inject.arm inj ~key:Cvd_back.site_crash
        (Sim.Fault_inject.Nth 1);
      (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error Errno.EIO -> ()
      | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)
      | Ok _ -> Alcotest.fail "response escaped a crashed driver VM");
      Alcotest.(check bool) "driver VM really died" true
        (not (Hypervisor.Vm.alive (M.hyp m |> Hypervisor.Hyp.vms |> List.hd) )
        || Cvd_front.session g.M.frontend = Cvd_front.Faulted);
      M.reboot_driver_vm m;
      let fd2 = ok (Vfs.openf k app "/dev/null0") in
      Alcotest.(check int) "recovered after reboot" 0
        (ok (Vfs.ioctl k app fd2 ~cmd:M.null_ioctl ~arg:0L)))

(* ---- a hostile driver VM's responses ---- *)

(* The driver VM writes the response bytes, so the frontend must not
   trust them (§4.1: a malicious driver VM cannot corrupt the guest).
   A scripted responder stands in for the backend on a fresh pool: it
   answers one ioctl with an unknown response tag and one read with
   one byte more than was asked for.  Each of those syscalls must fail
   with EIO — no exception escapes the guest — the session stays
   healthy, and the next honest operation succeeds. *)
let test_hostile_responses_fail_one_op () =
  let m = M.create () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  let hostile =
    Oskit.Defs.make_device ~path:"/dev/hostile0" ~cls:"test" ~driver:"hostile"
      {
        Oskit.Defs.default_ops with
        fop_kinds =
          [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Read; Os_flavor.Ioctl ];
      }
  in
  let (_ : Oskit.Defs.device) = Cvd_front.export g.M.frontend hostile in
  let ch =
    Channel.create (M.engine m) ~config:(M.config m) ~phys:m.M.phys
      ~guest_vm:g.M.vm ~driver_vm:m.M.driver_vm
  in
  Cvd_front.reattach g.M.frontend
    ~pool:(Paradice.Chan_pool.create [| ch |] ~cap:8);
  let module P = Paradice.Proto in
  let bad_tag = Bytes.make P.slot_size '\000' in
  Bytes.set_int32_le bad_tag 0 99l;
  let hostile = ref [ `Bad_tag; `Long_read ] in
  Sim.Engine.spawn (M.engine m) ~name:"hostile-responder" (fun () ->
      let rec loop () =
        match Channel.next_request ch with
        | None -> ()
        | Some (slot, bytes) ->
            let req, _, _ = P.decode_request bytes in
            let resp =
              match (req, !hostile) with
              | P.Ropen _, _ -> P.encode_response (P.Rok 1)
              | P.Rioctl _, `Bad_tag :: rest ->
                  hostile := rest;
                  bad_tag
              | P.Rread { len; _ }, `Long_read :: rest ->
                  hostile := rest;
                  P.encode_response (P.Rok (len + 1))
              | P.Rread { len; _ }, _ -> P.encode_response (P.Rok len)
              | _ -> P.encode_response (P.Rok 0)
            in
            Channel.respond ch ~slot resp;
            loop ()
      in
      loop ());
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/hostile0") in
      let buf = Task.alloc_buf app 64 in
      let eio what = function
        | Error e -> Alcotest.check errno what Errno.EIO e
        | Ok _ -> Alcotest.failf "%s: hostile response accepted" what
      in
      eio "unknown response tag" (Vfs.ioctl k app fd ~cmd:1 ~arg:0L);
      Alcotest.(check int) "next ioctl succeeds" 0
        (ok (Vfs.ioctl k app fd ~cmd:1 ~arg:0L));
      eio "read count past len" (Vfs.read k app fd ~buf ~len:64);
      Alcotest.(check int) "next read succeeds" 64
        (ok (Vfs.read k app fd ~buf ~len:64)));
  Alcotest.(check bool) "session still healthy" true
    (Cvd_front.session g.M.frontend = Cvd_front.Healthy)

let suites =
  [
    ( "faults",
      [
        Alcotest.test_case "mailbox timeout removes waiter" `Quick
          test_mailbox_timeout_waiter_removed;
        Alcotest.test_case "mailbox send after cancelled waiter" `Quick
          test_mailbox_timeout_send_after_new_waiter;
        Alcotest.test_case "fault injection deterministic" `Quick
          test_fault_inject_nth_and_determinism;
        Alcotest.test_case "kill mid-rpc: blocking read gets EIO" `Quick
          test_kill_mid_rpc_blocking_read;
        Alcotest.test_case "corrupt frame rejected, backend survives" `Quick
          test_corrupt_frame_rejected_backend_survives;
        Alcotest.test_case "dropped request retried" `Quick
          test_dropped_request_retried;
        Alcotest.test_case "wedged worker times out" `Quick
          test_wedged_worker_times_out;
        Alcotest.test_case "watchdog detects silent death" `Quick
          test_watchdog_detects_silent_death;
        Alcotest.test_case "fault tears down cross-VM mappings" `Quick
          test_fault_tears_down_mappings;
        Alcotest.test_case "kill, reboot, reopen" `Quick test_kill_reboot_reopen;
        Alcotest.test_case "op outliving a fault keeps a later grant" `Quick
          test_fault_outlived_op_keeps_later_grant;
        Alcotest.test_case "cvd.crash site kills mid-rpc" `Quick
          test_crash_site_kills_mid_rpc;
        Alcotest.test_case "timed-out op span closes with error" `Quick
          test_timed_out_op_span_closes_with_error;
        Alcotest.test_case "crash aborts spans, reattach clean" `Quick
          test_crash_aborts_spans_reattach_is_clean;
        Alcotest.test_case "poll spin does not starve the ring" `Quick
          test_poll_spin_does_not_starve_ring;
        Alcotest.test_case "hostile responses fail one op with EIO" `Quick
          test_hostile_responses_fail_one_op;
      ] );
  ]
