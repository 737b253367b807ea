(* Deterministic notification-mode-switching sweep, run by `dune build
   @check` (or @notify-suite): a fixed schedule drives a continuous
   operation stream across live mode switches and verifies that

   - crossing interrupt -> hybrid -> polling -> interrupt mid-stream
     on live channels loses no operation, the hybrid leg rides
     poll-cost handoffs, and the schedule is bit-identical across runs;
   - a driver-VM crash (PR 1 recovery) landing while the backend sits
     inside a hybrid poll window neither wedges the machine nor leaks
     anything worse than the crash semantics (ENODEV after the fault,
     fresh opens serve again after reboot);
   - a hot upgrade (PR 6 planned handoff) landing inside a hybrid poll
     window stays invisible: every streamed operation completes, none
     sees ENODEV/EIO, and hybrid handoffs resume on the successor.

   Any violation prints and exits 1, failing CI. *)

module M = Paradice.Machine
module CF = Paradice.Cvd_front
module CB = Paradice.Cvd_back
module Pool = Paradice.Chan_pool
module Config = Paradice.Config
open Oskit

let violations = ref []

let violation fmt =
  Printf.ksprintf (fun s -> violations := s :: !violations) fmt

(* A streamed op every [gap_us]; back-to-back enough (gap < the 20 us
   hybrid window) that the backend lives inside poll windows while the
   stream runs.  Returns (ok, enodev, eio, other) counters that settle
   when the engine drains. *)
let start_stream m (g : M.guest) ~ops ~gap_us =
  let ok = ref 0 and enodev = ref 0 and eio = ref 0 and other = ref 0 in
  Sim.Engine.spawn (M.engine m) ~name:"stream" (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"stream" in
      let k = g.M.kernel in
      match Vfs.openf k app "/dev/null0" with
      | Error e -> violation "stream: open failed %s" (Errno.to_string e)
      | Ok fd ->
          for _ = 1 to ops do
            Sim.Engine.wait gap_us;
            match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
            | Ok _ -> incr ok
            | Error Errno.ENODEV -> incr enodev
            | Error Errno.EIO -> incr eio
            | Error _ -> incr other
          done);
  (ok, enodev, eio, other)

(* ---- scenario 1: live switching, bit-identical across runs ---- *)

let switch_run () =
  let m = M.create () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  let pool = g.M.link.CB.pool in
  let ok, enodev, eio, other = start_stream m g ~ops:400 ~gap_us:5. in
  let switch delay (preset : Config.t) =
    Sim.Engine.at (M.engine m) ~delay (fun () ->
        Pool.set_signalling pool preset.Config.signalling)
  in
  switch 500. Config.hybrid;
  switch 1_500. Config.polling;
  switch 2_500. Config.default;
  switch 3_000. Config.hybrid;
  Sim.Engine.run (M.engine m);
  let s = Pool.stats pool in
  (!ok, !enodev, !eio, !other, s, Sim.Engine.now (M.engine m))

let scenario_switching () =
  let ok, enodev, eio, other, s, t_end = switch_run () in
  if ok <> 400 then violation "switching: %d/400 ops completed" ok;
  if enodev + eio + other > 0 then
    violation "switching: errors enodev=%d eio=%d other=%d" enodev eio other;
  if s.Pool.req_poll_pickups = 0 then
    violation "switching: hybrid phases rode no poll handoffs";
  if s.Pool.protocol_violations > 0 then
    violation "switching: %d protocol violations" s.Pool.protocol_violations;
  (* the schedule must not depend on hidden state: a second identical
     run lands on the same counters at the same simulated time *)
  let ok2, _, _, _, s2, t_end2 = switch_run () in
  if ok2 <> ok || s2 <> s || t_end2 <> t_end then
    violation
      "switching: runs diverged (ok %d vs %d, t_end %.3f vs %.3f, pickups %d vs %d)"
      ok ok2 t_end t_end2 s.Pool.req_poll_pickups s2.Pool.req_poll_pickups;
  Printf.printf
    "notify suite: switching 400/400 ops, %d pickups + %d deliveries, %d legs, deterministic\n"
    s.Pool.req_poll_pickups s.Pool.resp_poll_deliveries s.Pool.legs

(* ---- scenario 2: driver-VM crash inside a hybrid poll window ---- *)

let scenario_crash_in_window () =
  let config =
    { Config.hybrid with Config.driver_reboot_us = 1_000.; rpc_timeout_us = 0. }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  let ok, enodev, eio, other = start_stream m g ~ops:200 ~gap_us:5. in
  (* the stream keeps the backend inside poll windows; the kill at
     1003 us lands between two streamed ops, i.e. mid-window *)
  Sim.Engine.at (M.engine m) ~delay:1_003. (fun () ->
      M.kill_driver_vm ~poison:true m);
  let recovered = ref false in
  Sim.Engine.at (M.engine m) ~delay:2_000. (fun () ->
      Sim.Engine.spawn (M.engine m) (fun () ->
          M.reboot_driver_vm m;
          let app = M.spawn_app m g.M.kernel ~name:"post-crash" in
          match Vfs.openf g.M.kernel app "/dev/null0" with
          | Error e ->
              violation "crash: post-reboot open failed %s" (Errno.to_string e)
          | Ok fd -> (
              match Vfs.ioctl g.M.kernel app fd ~cmd:M.null_ioctl ~arg:0L with
              | Ok 0 -> recovered := true
              | Ok rc -> violation "crash: post-reboot ioctl rc=%d" rc
              | Error e ->
                  violation "crash: post-reboot ioctl failed %s"
                    (Errno.to_string e))));
  Sim.Engine.run (M.engine m);
  (* every streamed op settled one way or the other: nothing wedged *)
  if !ok + !enodev + !eio + !other <> 200 then
    violation "crash: stream wedged (%d/200 settled)"
      (!ok + !enodev + !eio + !other);
  if !ok = 0 then violation "crash: no op completed before the kill";
  if !enodev = 0 then
    violation "crash: no op observed the dead session (expected ENODEV)";
  if !eio > 1 then
    violation "crash: %d EIO (only the op in flight at the kill may)" !eio;
  if not !recovered then violation "crash: no recovery after reboot";
  Printf.printf
    "notify suite: crash in window ok=%d enodev=%d eio=%d, recovered after reboot\n"
    !ok !enodev !eio

(* ---- scenario 3: hot upgrade inside a hybrid poll window ---- *)

let scenario_upgrade_in_window () =
  let config =
    { Config.hybrid with Config.driver_reboot_us = 1_000.; rpc_timeout_us = 0. }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  let ok, enodev, eio, other = start_stream m g ~ops:400 ~gap_us:5. in
  let upgraded = ref false in
  Sim.Engine.at (M.engine m) ~delay:501. (fun () ->
      Sim.Engine.spawn (M.engine m) (fun () ->
          match M.upgrade_driver_vm m with
          | M.Upgraded _ -> upgraded := true
          | M.Upgrade_degraded_reboot -> violation "upgrade: degraded to reboot"
          | M.Upgrade_aborted site -> violation "upgrade: aborted at %s" site
          | M.Upgrade_failed_dead site ->
              violation "upgrade: failed dead at %s" site));
  Sim.Engine.run (M.engine m);
  if not !upgraded then violation "upgrade: did not complete";
  if !ok <> 400 then violation "upgrade: %d/400 ops completed" !ok;
  if !enodev + !eio + !other > 0 then
    violation "upgrade: errors enodev=%d eio=%d other=%d" !enodev !eio !other;
  (* hybrid handoffs resumed on the successor transport *)
  let s = Pool.stats g.M.link.CB.pool in
  if s.Pool.req_poll_pickups = 0 then
    violation "upgrade: successor channels carried no poll handoffs";
  CF.stop_watchdog g.M.frontend;
  Printf.printf
    "notify suite: upgrade in window 400/400 ops, 0 errors, %d successor pickups\n"
    s.Pool.req_poll_pickups

let () =
  scenario_switching ();
  scenario_crash_in_window ();
  scenario_upgrade_in_window ();
  match !violations with
  | [] -> print_endline "notify suite: OK"
  | vs ->
      List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) (List.rev vs);
      exit 1
