(* Deterministic upgrade/migration fault sweep, run by `dune build
   @check` (or @upgrade-suite): fixed seeds arm a crash at every phase
   of a hot upgrade and of a session migration, and the suite verifies
   the cardinal invariant of §7-style recovery composed with live
   operations:

   - after a crashed MIGRATION the guest's session lives on exactly one
     driver VM — never on both sides, never on neither — and the
     containment record (misbehavior score, quarantine flag) rides with
     it unchanged;
   - after a crashed UPGRADE the machine is never wedged: an aborted
     checkpoint leaves the incumbent serving, a crashed restore
     degrades to crash-reboot semantics (stale fds fail fast, a fresh
     open serves again);
   - a clean upgrade and a clean migration in the same schedule lose no
     operation to ENODEV/EIO.

   Seeds are fixed so the schedule is identical on every run; any
   violation prints and exits 1, failing CI. *)

module M = Paradice.Machine
module CB = Paradice.Cvd_back
module CF = Paradice.Cvd_front
module FI = Sim.Fault_inject
open Oskit

let seeds = [ 0x06FADEL; 0xBEEF01L; 0x5EED42L ]

let violations = ref []

let violation fmt =
  Printf.ksprintf (fun s -> violations := s :: !violations) fmt

let config inj =
  {
    Paradice.Config.default with
    Paradice.Config.injector = Some inj;
    driver_reboot_us = 1_000.;
  }

(* The session must live on exactly one driver VM.  [where] names the
   scenario in the violation message. *)
let check_one_side ~where m (g : M.guest) =
  let sides =
    (if CB.has_link m.M.backend g.M.link then 1 else 0)
    + List.length (List.filter (fun r -> CB.has_link r g.M.link) (M.replicas m))
  in
  if sides <> 1 then violation "%s: session on %d sides (want 1)" where sides

(* One migration run with a crash armed at [site] (None = clean run).
   Returns after verifying invariants. *)
let migration_case ~seed ~site =
  let inj = FI.create ~seed () in
  let m = M.create ~config:(config inj) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  let name =
    Printf.sprintf "migrate[%s,seed=%#Lx]"
      (Option.value site ~default:"clean")
      seed
  in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd =
        match Vfs.openf k app "/dev/null0" with
        | Ok fd -> fd
        | Error e ->
            violation "%s: initial open failed: %s" name (Errno.to_string e);
            raise Exit
      in
      (* a containment record that must survive whatever happens *)
      g.M.link.CB.score <- 7;
      g.M.link.CB.rejected <- 3;
      g.M.link.CB.quota_breaches <- 1;
      let rep = M.spawn_driver_replica m in
      Option.iter (fun s -> FI.arm inj ~key:s (FI.Nth 1)) site;
      let outcome = M.migrate_guest m g ~dst:rep in
      (match (site, outcome) with
      | None, M.Migrated _ -> ()
      | None, _ -> violation "%s: clean migration did not complete" name
      | Some s, M.Migrate_aborted key when key = s -> ()
      | Some s, M.Migrate_failed_back (key, _) when key = s -> ()
      | Some _, M.Migrated _ ->
          violation "%s: armed crash did not fire" name
      | Some _, _ -> violation "%s: wrong failure site reported" name);
      check_one_side ~where:name m g;
      if g.M.link.CB.score <> 7 then
        violation "%s: misbehavior score lost (%d)" name g.M.link.CB.score;
      if g.M.link.CB.rejected <> 3 then
        violation "%s: rejection count lost (%d)" name g.M.link.CB.rejected;
      if g.M.link.CB.quota_breaches <> 1 then
        violation "%s: quota-breach count lost (%d)" name
          g.M.link.CB.quota_breaches;
      if g.M.link.CB.quarantined then
        violation "%s: guest spuriously quarantined" name;
      (* whichever side holds the session must serve the same fd *)
      match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
      | Ok 0 -> ()
      | Ok rc -> violation "%s: post-migration op returned %d" name rc
      | Error e ->
          violation "%s: post-migration op failed: %s" name (Errno.to_string e));
  Sim.Engine.run (M.engine m)

(* One upgrade run with a crash armed at [site] (None = clean run). *)
let upgrade_case ~seed ~site =
  let inj = FI.create ~seed () in
  let m = M.create ~config:(config inj) () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  let name =
    Printf.sprintf "upgrade[%s,seed=%#Lx]"
      (Option.value site ~default:"clean")
      seed
  in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd =
        match Vfs.openf k app "/dev/null0" with
        | Ok fd -> fd
        | Error e ->
            violation "%s: initial open failed: %s" name (Errno.to_string e);
            raise Exit
      in
      g.M.link.CB.score <- 7;
      Option.iter (fun s -> FI.arm inj ~key:s (FI.Nth 1)) site;
      let outcome = M.upgrade_driver_vm m in
      (match (site, outcome) with
      | None, M.Upgraded stats ->
          if stats.M.up_files_dropped <> 0 then
            violation "%s: clean upgrade dropped %d files" name
              stats.M.up_files_dropped
      | None, _ -> violation "%s: clean upgrade did not complete" name
      | Some s, M.Upgrade_aborted key when key = s -> ()
      | Some s, M.Upgrade_failed_dead key when key = s -> ()
      | Some _, M.Upgraded _ -> violation "%s: armed crash did not fire" name
      | Some _, _ -> violation "%s: wrong outcome for armed crash" name);
      match outcome with
      | M.Upgraded _ | M.Upgrade_aborted _ ->
          check_one_side ~where:name m g;
          if g.M.link.CB.score <> 7 then
            violation "%s: misbehavior score lost (%d)" name g.M.link.CB.score;
          (* files survive: the same fd keeps serving *)
          (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
          | Ok 0 -> ()
          | _ -> violation "%s: surviving fd does not serve" name)
      | M.Upgrade_failed_dead _ | M.Upgrade_degraded_reboot -> (
          (* crash-reboot semantics: stale fd fails fast, reopen works *)
          (match Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
          | Error (Errno.ENODEV | Errno.EIO) -> ()
          | Ok _ -> violation "%s: stale fd served after a dead restore" name
          | Error e ->
              violation "%s: stale fd wrong errno %s" name (Errno.to_string e));
          if CF.session g.M.frontend = CF.Faulted then M.reboot_driver_vm m;
          check_one_side ~where:(name ^ " (post-reboot)") m g;
          match Vfs.openf k app "/dev/null0" with
          | Ok fd2 -> (
              match Vfs.ioctl k app fd2 ~cmd:M.null_ioctl ~arg:0L with
              | Ok 0 -> ()
              | _ -> violation "%s: post-recovery op failed" name)
          | Error e ->
              violation "%s: post-recovery open failed: %s" name
                (Errno.to_string e)));
  Sim.Engine.run (M.engine m)

let () =
  let migration_sites =
    [
      None;
      Some M.site_migrate_crash_checkpoint;
      Some M.site_migrate_crash_transfer;
      Some M.site_migrate_crash_restore;
    ]
  and upgrade_sites =
    [
      None;
      Some M.site_upgrade_crash_checkpoint;
      Some M.site_upgrade_crash_restore;
    ]
  in
  let cases = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun site ->
          incr cases;
          migration_case ~seed ~site)
        migration_sites;
      List.iter
        (fun site ->
          incr cases;
          upgrade_case ~seed ~site)
        upgrade_sites)
    seeds;
  Printf.printf "upgrade suite: %d cases over %d seeds\n" !cases
    (List.length seeds);
  match !violations with
  | [] -> print_endline "upgrade suite: OK"
  | vs ->
      List.iter
        (fun v -> print_endline ("upgrade suite: VIOLATION: " ^ v))
        (List.rev vs);
      exit 1
