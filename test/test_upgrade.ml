(* Live driver-VM operations: hot upgrade and session migration.  The
   planned-handoff core (quiesce / checkpoint / swap / restore /
   resume) must be invisible to guests except as latency; its failure
   modes must degrade to the crash-recovery semantics of §7.2, never
   wedge; and a session must always land whole on exactly one driver
   VM. *)

open Oskit
open Fixtures
module M = Paradice.Machine
module Config = Paradice.Config
module Cvd_back = Paradice.Cvd_back
module Cvd_front = Paradice.Cvd_front
module Snapshot = Paradice.Snapshot
module FI = Sim.Fault_inject

let errno = Alcotest.testable Errno.pp ( = )

(* ---- snapshot wire format ---- *)

let sample_snap () =
  {
    Snapshot.ls_guest_vm_id = 7;
    ls_next_vfd = 42;
    ls_ops_served = 1234;
    ls_malformed = 3;
    ls_rejected = 2;
    ls_grant_faults = 1;
    ls_quota_breaches = 4;
    ls_score = 17;
    ls_quarantined = false;
    ls_files =
      [
        {
          Snapshot.fr_vfd = 1;
          fr_path = "/dev/null0";
          fr_fasync = false;
          fr_nonblock = false;
          fr_vmas = [];
        };
        {
          Snapshot.fr_vfd = 5;
          fr_path = "/dev/input/event0";
          fr_fasync = true;
          fr_nonblock = true;
          fr_vmas = [ (0x40000000, 8192, 0); (0x40100000, 4096, 2) ];
        };
      ];
    ls_grants =
      [
        (0, [ Hypervisor.Grant_table.Copy_to_user { addr = 0x1000; len = 64 } ]);
        ( 3,
          [
            Hypervisor.Grant_table.Copy_from_user { addr = 0x2000; len = 128 };
            Hypervisor.Grant_table.Map_page { addr = 0x3000; len = 4096 };
          ] );
      ];
  }

let test_snapshot_roundtrip () =
  let snap = sample_snap () in
  let blob = Snapshot.encode snap in
  let back = Snapshot.decode blob in
  Alcotest.(check bool) "roundtrip is identity" true (back = snap);
  (* a quarantined record survives too *)
  let q = { snap with Snapshot.ls_quarantined = true; ls_files = [] } in
  Alcotest.(check bool) "quarantined roundtrip" true
    (Snapshot.decode (Snapshot.encode q) = q)

let test_snapshot_rejects_malformed () =
  let blob = Snapshot.encode (sample_snap ()) in
  let expect_malformed label b =
    match Snapshot.decode b with
    | (_ : Snapshot.link_snap) -> Alcotest.failf "%s: decoded" label
    | exception Snapshot.Malformed _ -> ()
  in
  (* truncations at every prefix must fail cleanly, never raise
     anything but Malformed *)
  for len = 0 to String.length blob - 1 do
    expect_malformed "truncated" (String.sub blob 0 len)
  done;
  (* every check, pinned by a forged blob and its exact message *)
  let expect_message msg b =
    match Snapshot.decode b with
    | (_ : Snapshot.link_snap) -> Alcotest.failf "%s: decoded" msg
    | exception Snapshot.Malformed m -> Alcotest.(check string) msg msg m
  in
  let empty = { (sample_snap ()) with Snapshot.ls_files = []; ls_grants = [] } in
  let one_file =
    {
      empty with
      Snapshot.ls_files =
        [
          {
            Snapshot.fr_vfd = 1;
            fr_path = "/dev/null0";
            fr_fasync = false;
            fr_nonblock = false;
            fr_vmas = [ (0x4000_0000, 4096, 0) ];
          };
        ];
    }
  in
  let one_grant =
    {
      empty with
      Snapshot.ls_grants =
        [ (0, [ Hypervisor.Grant_table.Copy_to_user { addr = 0x1000; len = 64 } ]) ];
    }
  in
  Alcotest.(check int) "empty snapshot size" 52 (String.length (Snapshot.encode empty));
  let u32 v b at = Bytes.set_int32_le b at (Int32.of_int v) in
  let i64 v b at = Bytes.set_int64_le b at v in
  List.iter
    (fun (snap, at, set, msg) ->
      let b = Bytes.of_string (Snapshot.encode snap) in
      set b at;
      expect_message msg (Bytes.to_string b))
    [
      (empty, 0, u32 0x50AD1CFF, "bad magic 0x50ad1cff");
      (empty, 4, u32 2, "unsupported snapshot version 2");
      (empty, 44, u32 ((1 lsl 20) + 1), "file count 1048577");
      (empty, 48, u32 4097, "grant group count 4097");
      (one_file, 48, u32 ((1 lsl 20) + 1), "vfd 1048577");
      (one_file, 52, u32 257, "path length 257");
      (one_file, 74, u32 4097, "vma count 4097");
      (one_file, 78, i64 0x4000_0000_0000_0000L, "negative vma field");
      (one_grant, 52, u32 170, "grant ref 170");
      (one_grant, 56, u32 4097, "op count 4097");
      (one_grant, 60, u32 4, "grant op kind 4");
      (one_grant, 64, i64 0xFFFF_FFFF_FFFF_FFFFL, "negative grant field");
    ];
  expect_message "truncated snapshot at byte 44 (need 4 more)"
    (String.sub (Snapshot.encode empty) 0 46);
  expect_message "1 trailing bytes" (Snapshot.encode empty ^ "x");
  (* a corrupted interior byte may change values but must never escape
     as anything other than a decoded snapshot or Malformed *)
  for i = 0 to String.length blob - 1 do
    let b = Bytes.of_string blob in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    match Snapshot.decode (Bytes.to_string b) with
    | (_ : Snapshot.link_snap) -> ()
    | exception Snapshot.Malformed _ -> ()
  done

(* ---- hot upgrade: happy path ---- *)

(* Fast boot so the upgrade overlaps a short op stream. *)
let upgrade_config ?injector ?(heartbeat = false) () =
  {
    Config.default with
    Config.driver_reboot_us = 1_000.;
    injector;
    heartbeat_interval_us = (if heartbeat then 1_000. else 0.);
    heartbeat_miss_limit = 3;
  }

let test_upgrade_keeps_files_working () =
  let m = M.create ~config:(upgrade_config ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let mouse = M.attach_mouse m in
  let g = M.add_guest m ~name:"g1" () in
  let eng = M.engine m in
  (* a concurrent op stream that spans the upgrade: every op must
     complete, none may see ENODEV/EIO *)
  let stream_ok = ref 0 and stream_err = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"stream" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      for _ = 1 to 100 do
        Sim.Engine.wait 50.;
        match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
        | Ok _ -> incr stream_ok
        | Error _ -> incr stream_err
      done);
  Devices.Evdev.start_mouse mouse ~rate_hz:1_000. ~moves:20;
  run_in_process eng (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let ev = ok (Vfs.openf k app "/dev/input/event0") in
      ok (Vfs.fasync k app ev ~on:true);
      let buf = Task.alloc_buf app 256 in
      let n = ok (Vfs.read k app ev ~buf ~len:256) in
      Alcotest.(check bool) "events before the upgrade" true (n > 0);
      Sim.Engine.wait 500.;
      let outcome = M.upgrade_driver_vm m in
      (match outcome with
      | M.Upgraded s ->
          Alcotest.(check int) "generation bumped" 1 s.M.up_generation;
          Alcotest.(check bool) "files survived" true (s.M.up_files_restored >= 2);
          Alcotest.(check int) "nothing dropped" 0 s.M.up_files_dropped;
          Alcotest.(check int) "the mouse's SIGIO re-armed" 1 s.M.up_fasync_rearmed
      | _ -> Alcotest.fail "expected Upgraded");
      Alcotest.(check int) "generation counter" 1 (M.driver_generation m);
      Alcotest.(check bool) "a planned swap is not a crash" true
        (Float.is_nan (M.last_killed_at m));
      Alcotest.(check bool) "session healthy" true
        (Cvd_front.session g.M.frontend = Cvd_front.Healthy);
      (* the SAME fd keeps working: events queued before/after the swap
         arrive on the successor *)
      let n = ok (Vfs.read k app ev ~buf ~len:256) in
      Alcotest.(check bool) "same fd reads after the upgrade" true (n > 0);
      ok (Vfs.close k app ev));
  Alcotest.(check int) "op stream: no errors across the upgrade" 0 !stream_err;
  Alcotest.(check int) "op stream: all completed" 100 !stream_ok;
  Cvd_front.stop_watchdog g.M.frontend

(* Quarantine and the misbehavior record must survive the upgrade: a
   hostile guest cannot launder its history through a driver-VM swap. *)
let test_upgrade_preserves_quarantine () =
  let m = M.create ~config:(upgrade_config ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let g1 = M.add_guest m ~name:"hostile" () in
  let g2 = M.add_guest m ~name:"sibling" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g2.M.kernel ~name:"sibling-app" in
      let k = g2.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      (* fabricate a tripped containment record on g1 *)
      g1.M.link.Cvd_back.score <- 99;
      g1.M.link.Cvd_back.rejected <- 12;
      g1.M.link.Cvd_back.quarantined <- true;
      (match M.upgrade_driver_vm m with
      | M.Upgraded _ -> ()
      | _ -> Alcotest.fail "expected Upgraded");
      Alcotest.(check bool) "quarantine survives" true
        g1.M.link.Cvd_back.quarantined;
      Alcotest.(check int) "score survives" 99 g1.M.link.Cvd_back.score;
      Alcotest.(check int) "counters survive" 12 g1.M.link.Cvd_back.rejected;
      (* the sibling keeps full service *)
      Alcotest.(check int) "sibling unaffected" 0
        (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L)))

(* ---- satellite: stale-file status (retryable vs dead) ---- *)

let test_stale_retryable_vs_dead () =
  let m = M.create () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      let file =
        match Hashtbl.find_opt app.Defs.fds fd with
        | Some f -> f
        | None -> Alcotest.fail "fd not in table"
      in
      Alcotest.(check bool) "live before the crash" true
        (Cvd_front.file_status g.M.frontend file = Cvd_front.Live);
      M.kill_driver_vm m;
      Sim.Engine.wait 100.;
      (* heartbeat is off in this config: the frontend discovers the
         death when an operation hits the dead transport *)
      (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error Errno.EIO | Error Errno.ENODEV -> ()
      | Error e -> Alcotest.fail ("unexpected errno " ^ Errno.to_string e)
      | Ok _ -> Alcotest.fail "op served by a dead driver VM");
      (* driver VM down: the stale file is a hard failure for now *)
      (match Cvd_front.file_status g.M.frontend file with
      | Cvd_front.Stale_dead _ -> ()
      | _ -> Alcotest.fail "expected Stale_dead while the session is down");
      M.reboot_driver_vm m;
      (* session re-established: same vfd is still dead, but the status
         says a reopen will succeed *)
      (match Cvd_front.file_status g.M.frontend file with
      | Cvd_front.Stale_retryable _ -> ()
      | _ -> Alcotest.fail "expected Stale_retryable after the reboot");
      (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error e -> Alcotest.check errno "stale vfd stays dead" Errno.ENODEV e
      | Ok _ -> Alcotest.fail "stale vfd resurrected");
      let fd2 = ok (Vfs.openf k app "/dev/null0") in
      Alcotest.(check int) "post-reboot reopen serves ops" 0
        (ok (Vfs.ioctl k app fd2 ~cmd:M.null_ioctl ~arg:0L));
      ok (Vfs.close k app fd);
      ok (Vfs.close k app fd2))

(* Each virtual file carries its own backend binding: a file staled by
   one fault keeps that fault's reason through the next, a file opened
   after the reattach is live beside it, and a closed file is unknown. *)
let test_stale_reason_survives_later_faults () =
  let m = M.create () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel and front = g.M.frontend in
      let open_null () =
        let fd = ok (Vfs.openf k app "/dev/null0") in
        (fd, Hashtbl.find app.Defs.fds fd)
      in
      let status what expected file =
        Alcotest.(check string) what expected
          (match Cvd_front.file_status front file with
          | Cvd_front.Live -> "live"
          | Cvd_front.Stale_retryable r -> "retryable: " ^ r
          | Cvd_front.Stale_dead r -> "dead: " ^ r
          | Cvd_front.Unknown -> "unknown")
      in
      let fault reason =
        M.kill_driver_vm m;
        Cvd_front.fault_session front ~reason
      in
      let fd1, f1 = open_null () in
      fault "fault 1";
      M.reboot_driver_vm m;
      let fd2, f2 = open_null () in
      status "reopened file" "live" f2;
      status "old file" "retryable: fault 1" f1;
      fault "fault 2";
      status "first file keeps fault 1" "dead: fault 1" f1;
      status "second file staled by fault 2" "dead: fault 2" f2;
      M.reboot_driver_vm m;
      let fd3, f3 = open_null () in
      status "file opened after the second reattach" "live" f3;
      status "first file after the second reattach" "retryable: fault 1" f1;
      ok (Vfs.close k app fd1);
      ok (Vfs.close k app fd3);
      status "closed stale file" "unknown" f1;
      status "closed live file" "unknown" f3;
      status "still open" "retryable: fault 2" f2;
      ok (Vfs.close k app fd2))

(* ---- satellite: watchdog suspension across a long quiesce ---- *)

let test_watchdog_suspended_across_quiesce () =
  let m = M.create ~config:(upgrade_config ~heartbeat:true ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      Cvd_front.quiesce g.M.frontend;
      Alcotest.(check bool) "paused" true (Cvd_front.is_paused g.M.frontend);
      (* far longer than heartbeat_miss_limit * heartbeat_interval_us
         (3 * 1000 us): no misses may accrue, no fault may fire *)
      Sim.Engine.wait 30_000.;
      Alcotest.(check bool) "no fault during a suspended quiesce" true
        (Cvd_front.session g.M.frontend = Cvd_front.Healthy);
      Alcotest.(check int) "no heartbeat misses" 0
        (Cvd_front.fault_stats g.M.frontend).Cvd_front.heartbeat_misses;
      Cvd_front.resume g.M.frontend;
      Alcotest.(check int) "ops flow after resume" 0
        (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L));
      (* let Engine.run drain: the watchdog fiber must exit *)
      Cvd_front.stop_watchdog g.M.frontend)

(* An op issued while quiesced parks and completes after resume —
   blocking, never failing. *)
let test_quiesced_op_parks_until_resume () =
  let m = M.create ~config:(upgrade_config ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  let eng = M.engine m in
  let op_done_at = ref nan in
  Sim.Engine.spawn eng (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"parked" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      Cvd_front.quiesce g.M.frontend;
      Sim.Engine.wait 10. (* issue mid-quiesce *);
      Alcotest.(check int) "parked op completes" 0
        (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L));
      op_done_at := Sim.Engine.now eng);
  Sim.Engine.at eng ~delay:5_000. (fun () -> Cvd_front.resume g.M.frontend);
  Sim.Engine.run eng;
  Alcotest.(check bool) "op waited for the resume" true (!op_done_at >= 5_000.)

(* A mouse read made at [read_at] across an upgrade that starts at
   1,000 us and quiesces once the successor has booted, at 2,000 us; an
   event arrives at 3,000 us.  Returns the read's result, the grant
   groups the restore revoked and the grant faults charged to the
   guest. *)
let read_across_upgrade ~read_at =
  let m = M.create ~config:(upgrade_config ()) () in
  let mouse = M.attach_mouse m in
  let g = M.add_guest m ~name:"g1" () in
  let eng = M.engine m in
  let result = ref None and revoked = ref (-1) in
  Sim.Engine.spawn eng (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"reader" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/input/event0") in
      let buf = Task.alloc_buf app 64 in
      Sim.Engine.wait (read_at -. Sim.Engine.now eng);
      result := Some (Vfs.read k app fd ~buf ~len:64));
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 1_000.;
      match M.upgrade_driver_vm m with
      | M.Upgraded s -> revoked := s.M.up_grants_revoked
      | _ -> Alcotest.fail "expected Upgraded");
  Sim.Engine.at eng ~delay:3_000. (fun () ->
      Devices.Evdev.inject mouse
        { Devices.Evdev.time_us = 3_000.; ev_type = Devices.Evdev.ev_rel;
          code = Devices.Evdev.rel_x; value = 1 });
  Sim.Engine.run eng;
  (!result, !revoked, g.M.link.Cvd_back.grant_faults)

(* An op that arrives during the handoff blackout waits at the pause
   gate before declaring, so the restore, which revokes every group its
   checkpoint did not see, finds none of it.  One made just before the
   quiesce, whose declare is still being written when the checkpoint is
   taken, gives its group back and declares again after the resume. *)
let test_blackout_op_keeps_its_grant () =
  List.iter
    (fun read_at ->
      let what fmt = Printf.sprintf ("read at %.2f us: " ^^ fmt) read_at in
      let result, revoked, grant_faults = read_across_upgrade ~read_at in
      (match result with
      | Some (Ok n) -> Alcotest.(check int) (what "the event") Devices.Evdev.event_bytes n
      | Some (Error e) -> Alcotest.failf "%s" (what "failed with %s" (Errno.to_string e))
      | None -> Alcotest.fail (what "never finished"));
      Alcotest.(check int) (what "no group revoked") 0 revoked;
      Alcotest.(check int) (what "no grant fault") 0 grant_faults)
    [ 1_500.; 1_999.6; 2_000.1; 2_000.5; 2_003. ]

(* ---- satellite: idempotency / races ---- *)

let test_kill_twice_then_reboot () =
  let m = M.create () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      M.kill_driver_vm m;
      M.kill_driver_vm m (* idempotent: no raise, no double teardown *);
      M.reboot_driver_vm m;
      Alcotest.(check int) "one generation" 1 (M.driver_generation m);
      let fd = ok (Vfs.openf k app "/dev/null0") in
      Alcotest.(check int) "serves after double-kill reboot" 0
        (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L)))

let test_reboot_races_armed_crash_site () =
  let inj = FI.create ~seed:7L () in
  let m = M.create ~config:(upgrade_config ~injector:inj ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      M.kill_driver_vm m;
      (* the crash site fires on the first op served by the REBOOTED
         backend: recovery must compose with a still-armed injector *)
      FI.arm inj ~key:Cvd_back.site_crash (FI.Nth 1);
      M.reboot_driver_vm m;
      (* the open itself is the first forwarded request *)
      (match Vfs.openf k app "/dev/null0" with
      | Error e -> Alcotest.check errno "armed crash kills the reboot" Errno.EIO e
      | Ok _ -> Alcotest.fail "armed cvd.crash did not fire");
      Alcotest.(check bool) "second-generation VM died" true
        (Cvd_back.is_killed m.M.backend);
      (* no wedge: a second reboot fully recovers *)
      M.reboot_driver_vm m;
      Alcotest.(check int) "two generations" 2 (M.driver_generation m);
      let fd2 = ok (Vfs.openf k app "/dev/null0") in
      Alcotest.(check int) "served after the race" 0
        (ok (Vfs.ioctl k app fd2 ~cmd:M.null_ioctl ~arg:0L)))

let test_upgrade_while_killed_degrades_to_reboot () =
  let m = M.create ~config:(upgrade_config ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      M.kill_driver_vm m;
      (match M.upgrade_driver_vm m with
      | M.Upgrade_degraded_reboot -> ()
      | _ -> Alcotest.fail "expected degradation to a crash reboot");
      Alcotest.(check int) "reboot happened" 1 (M.driver_generation m);
      (* crash-reboot semantics, not upgrade semantics: the old fd is
         stale and a reopen works *)
      (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error e -> Alcotest.check errno "old fd stale" Errno.ENODEV e
      | Ok _ -> Alcotest.fail "upgrade-while-killed preserved files");
      let fd2 = ok (Vfs.openf k app "/dev/null0") in
      Alcotest.(check int) "reopen serves" 0
        (ok (Vfs.ioctl k app fd2 ~cmd:M.null_ioctl ~arg:0L)))

(* ---- upgrade crash sites ---- *)

let test_upgrade_crash_mid_checkpoint_aborts () =
  let inj = FI.create ~seed:11L () in
  let m = M.create ~config:(upgrade_config ~injector:inj ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      FI.arm inj ~key:M.site_upgrade_crash_checkpoint (FI.Nth 1);
      (match M.upgrade_driver_vm m with
      | M.Upgrade_aborted key ->
          Alcotest.(check string) "abort names the site"
            M.site_upgrade_crash_checkpoint key
      | _ -> Alcotest.fail "expected Upgrade_aborted");
      (* the incumbent never stopped being correct *)
      Alcotest.(check int) "no generation change" 0 (M.driver_generation m);
      Alcotest.(check bool) "session healthy" true
        (Cvd_front.session g.M.frontend = Cvd_front.Healthy);
      Alcotest.(check int) "same fd still serves" 0
        (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L)))

let test_upgrade_crash_mid_restore_faults_then_reboots () =
  let inj = FI.create ~seed:13L () in
  let m = M.create ~config:(upgrade_config ~injector:inj ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      FI.arm inj ~key:M.site_upgrade_crash_restore (FI.Nth 1);
      (match M.upgrade_driver_vm m with
      | M.Upgrade_failed_dead key ->
          Alcotest.(check string) "failure names the site"
            M.site_upgrade_crash_restore key
      | _ -> Alcotest.fail "expected Upgrade_failed_dead");
      (* crash semantics from here: faulted session, stale fd, reboot
         recovers *)
      Alcotest.(check bool) "session faulted" true
        (Cvd_front.session g.M.frontend = Cvd_front.Faulted);
      (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Error e -> Alcotest.check errno "fd stale after failed upgrade" Errno.ENODEV e
      | Ok _ -> Alcotest.fail "fd survived a failed upgrade");
      M.reboot_driver_vm m;
      let fd2 = ok (Vfs.openf k app "/dev/null0") in
      Alcotest.(check int) "reboot recovers" 0
        (ok (Vfs.ioctl k app fd2 ~cmd:M.null_ioctl ~arg:0L)))

(* ---- session migration ---- *)

(* The session lives on exactly one driver VM. *)
let check_exactly_one_side m (g : M.guest) =
  let on_main = Cvd_back.has_link m.M.backend g.M.link in
  let on_reps =
    List.filter (fun r -> Cvd_back.has_link r g.M.link) (M.replicas m)
  in
  Alcotest.(check int) "session on exactly one side" 1
    ((if on_main then 1 else 0) + List.length on_reps)

let test_migration_moves_session () =
  let m = M.create ~config:(upgrade_config ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      let rep = M.spawn_driver_replica m in
      (match M.migrate_guest m g ~dst:rep with
      | M.Migrated s ->
          Alcotest.(check int) "file moved" 1 s.Cvd_back.rs_files;
          Alcotest.(check int) "nothing dropped" 0 s.Cvd_back.rs_dropped
      | _ -> Alcotest.fail "expected Migrated");
      check_exactly_one_side m g;
      Alcotest.(check bool) "now on the replica" true
        (Cvd_back.has_link rep g.M.link);
      Alcotest.(check int) "same fd serves on the replica" 0
        (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L));
      (* and back home, through the same core *)
      (match M.migrate_guest m g ~dst:m.M.backend with
      | M.Migrated _ -> ()
      | _ -> Alcotest.fail "expected Migrated (return trip)");
      check_exactly_one_side m g;
      Alcotest.(check bool) "back on the main driver VM" true
        (Cvd_back.has_link m.M.backend g.M.link);
      Alcotest.(check int) "same fd serves back home" 0
        (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L)))

(* ---- checkpoint restore re-validation ---- *)

(* Restore re-validates a snapshot through the checks a live open
   faces: every refused entry is dropped and counted, never trusted.
   A hand-built snapshot holds one entry per refusal, a good entry
   whose carry-overs (nonblock, VMA mirrors, the SIGIO re-arm) must
   come back, and a filler that brings the link to its two-vfd cap. *)
let test_restore_revalidates_snapshot () =
  let m = M.create ~config:{ Config.default with Config.max_open_vfds = 2 } () in
  let (_ : Defs.device) = M.attach_null m in
  let (_ : Devices.Evdev.t) = M.attach_mouse m in
  let dk = M.driver_kernel m in
  let excl =
    Defs.make_device ~path:"/dev/excl0" ~cls:"test" ~driver:"excl" ~exclusive:true
      Defs.default_ops
  in
  Devfs.register (Kernel.devfs dk) excl;
  Cvd_back.export m.M.backend "/dev/excl0";
  let guest_vm =
    Hypervisor.Hyp.create_vm (M.hyp m) ~name:"restored" ~kind:Hypervisor.Vm.Guest
      ~mem_bytes:(16 * mib)
  in
  let entry ?(fasync = false) ?(nonblock = false) ?(vmas = []) vfd path =
    { Snapshot.fr_vfd = vfd; fr_path = path; fr_fasync = fasync; fr_nonblock = nonblock;
      fr_vmas = vmas }
  in
  let snap =
    {
      Snapshot.ls_guest_vm_id = Hypervisor.Vm.id guest_vm;
      ls_next_vfd = 6;
      ls_ops_served = 0;
      ls_malformed = 0;
      ls_rejected = 0;
      ls_grant_faults = 0;
      ls_quota_breaches = 0;
      ls_score = 0;
      ls_quarantined = false;
      ls_files =
        [
          entry 10 "/etc/passwd" (* outside /dev/ *);
          entry 0 "/dev/null0";
          entry (Paradice.Proto.max_vfd + 1) "/dev/null0";
          entry 11 "/dev/secret0" (* never exported *);
          entry 12 "/dev/excl0" (* single-open, already open *);
          entry 3 "/dev/input/event0" ~fasync:true ~nonblock:true
            ~vmas:[ (0x4000_0000, 8192, 0); (max_int - 4095, 8192, 0) (* wraps *) ];
          entry 3 "/dev/null0" (* duplicate vfd *);
          entry 4 "/dev/null0" (* fills the cap *);
          entry 5 "/dev/null0" (* past max_open_vfds *);
        ];
      ls_grants = [];
    }
  in
  let audit = Hypervisor.Hyp.audit (M.hyp m) in
  run_in_process (M.engine m) (fun () ->
      let holder = Kernel.spawn_task dk ~name:"holder" in
      let (_ : int) = ok (Vfs.openf dk holder "/dev/excl0") in
      let rejections = audit.Hypervisor.Audit.sanitize_rejections in
      let link, s = Cvd_back.restore_link m.M.backend ~snap ~guest_vm () in
      Alcotest.(check int) "seven entries dropped" 7 s.Cvd_back.rs_dropped;
      Alcotest.(check int) "one rejection each" 7
        (audit.Hypervisor.Audit.sanitize_rejections - rejections);
      Alcotest.(check int) "good entry and filler restored" 2 s.Cvd_back.rs_files;
      Alcotest.(check (list int)) "restored vfds" [ 3; 4 ]
        (List.map fst (Cvd_back.open_files link));
      Alcotest.(check int) "exclusive device still held once" 1 excl.Defs.open_count;
      let fs = List.assoc 3 (Cvd_back.open_files link) in
      Alcotest.(check bool) "nonblock carried over" true fs.Cvd_back.file.Defs.nonblock;
      Alcotest.(check int) "one VMA mirror" 1 s.Cvd_back.rs_vmas;
      Alcotest.(check (list int)) "the valid VMA" [ 0x4000_0000 ]
        (List.map (fun v -> v.Defs.vma_start) fs.Cvd_back.vmas);
      Alcotest.(check int) "SIGIO re-armed" 1 s.Cvd_back.rs_fasync;
      Alcotest.(check int) "one SIGIO subscriber" 1
        (List.length fs.Cvd_back.file.Defs.fasync_subscribers))

(* A restored vfd stays taken: the next live [Ropen] skips it even when
   the snapshot's counter points at it. *)
let test_restore_never_reissues_a_restored_vfd () =
  let m = M.create () in
  let (_ : Defs.device) = M.attach_null m in
  let guest_vm =
    Hypervisor.Hyp.create_vm (M.hyp m) ~name:"restored" ~kind:Hypervisor.Vm.Guest
      ~mem_bytes:(16 * mib)
  in
  let guest_kernel =
    Kernel.create ~engine:(M.engine m) ~vm:guest_vm ~flavor:Os_flavor.Linux_3_2_0 ()
  in
  let snap =
    {
      Snapshot.ls_guest_vm_id = Hypervisor.Vm.id guest_vm;
      ls_next_vfd = 1;
      ls_ops_served = 0;
      ls_malformed = 0;
      ls_rejected = 0;
      ls_grant_faults = 0;
      ls_quota_breaches = 0;
      ls_score = 0;
      ls_quarantined = false;
      ls_files =
        [
          {
            Snapshot.fr_vfd = 1;
            fr_path = "/dev/null0";
            fr_fasync = false;
            fr_nonblock = false;
            fr_vmas = [];
          };
        ];
      ls_grants = [];
    }
  in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m guest_kernel ~name:"app" in
      let link, s = Cvd_back.restore_link m.M.backend ~snap ~guest_vm () in
      Alcotest.(check int) "vfd 1 restored" 1 s.Cvd_back.rs_files;
      let worker = Kernel.spawn_task (M.driver_kernel m) ~name:"worker" in
      let resp =
        Cvd_back.serve_one m.M.backend link worker
          (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Defs.pid
             (Paradice.Proto.Ropen { path = "/dev/null0" }))
      in
      Alcotest.(check bool) "fresh open gets vfd 2" true (resp = Paradice.Proto.Rok 2);
      Alcotest.(check int) "both files held" 2 (List.length (Cvd_back.open_files link)))

let test_migration_restore_crash_lands_on_source () =
  let inj = FI.create ~seed:17L () in
  let m = M.create ~config:(upgrade_config ~injector:inj ()) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      g.M.link.Cvd_back.score <- 5 (* containment record must follow *);
      let rep = M.spawn_driver_replica m in
      FI.arm inj ~key:M.site_migrate_crash_restore (FI.Nth 1);
      (match M.migrate_guest m g ~dst:rep with
      | M.Migrate_failed_back (key, _) ->
          Alcotest.(check string) "failure names the site"
            M.site_migrate_crash_restore key
      | _ -> Alcotest.fail "expected Migrate_failed_back");
      check_exactly_one_side m g;
      Alcotest.(check bool) "session landed back on the source" true
        (Cvd_back.has_link m.M.backend g.M.link);
      Alcotest.(check bool) "nothing left on the destination" false
        (Cvd_back.has_link rep g.M.link);
      Alcotest.(check int) "containment record intact" 5
        g.M.link.Cvd_back.score;
      Alcotest.(check int) "same fd serves on the source" 0
        (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L)))

let suites =
  [
    ( "upgrade",
      [
        Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "snapshot rejects malformed" `Quick
          test_snapshot_rejects_malformed;
        Alcotest.test_case "upgrade keeps files working" `Quick
          test_upgrade_keeps_files_working;
        Alcotest.test_case "upgrade preserves quarantine" `Quick
          test_upgrade_preserves_quarantine;
        Alcotest.test_case "stale: retryable vs dead" `Quick
          test_stale_retryable_vs_dead;
        Alcotest.test_case "stale reason survives later faults" `Quick
          test_stale_reason_survives_later_faults;
        Alcotest.test_case "watchdog suspended across quiesce" `Quick
          test_watchdog_suspended_across_quiesce;
        Alcotest.test_case "quiesced op parks until resume" `Quick
          test_quiesced_op_parks_until_resume;
        Alcotest.test_case "blackout op keeps its grant" `Quick
          test_blackout_op_keeps_its_grant;
        Alcotest.test_case "kill twice then reboot" `Quick
          test_kill_twice_then_reboot;
        Alcotest.test_case "reboot races armed cvd.crash" `Quick
          test_reboot_races_armed_crash_site;
        Alcotest.test_case "upgrade while killed degrades to reboot" `Quick
          test_upgrade_while_killed_degrades_to_reboot;
        Alcotest.test_case "upgrade crash mid-checkpoint aborts" `Quick
          test_upgrade_crash_mid_checkpoint_aborts;
        Alcotest.test_case "upgrade crash mid-restore faults, reboots" `Quick
          test_upgrade_crash_mid_restore_faults_then_reboots;
        Alcotest.test_case "migration moves the session" `Quick
          test_migration_moves_session;
        Alcotest.test_case "migration restore crash lands on source" `Quick
          test_migration_restore_crash_lands_on_source;
        Alcotest.test_case "restore re-validates every snapshot entry" `Quick
          test_restore_revalidates_snapshot;
        Alcotest.test_case "restore never reissues a restored vfd" `Quick
          test_restore_never_reissues_a_restored_vfd;
      ] );
  ]
