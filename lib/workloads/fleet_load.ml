(** Standard fleet workload: the per-shard load behind [bench fleet]
    and the fleet suite.

    One shard = one {!Paradice.Machine} (its own engine, hypervisor,
    driver VM) serving the null device to a slice of the fleet's guest
    links.  Every guest issues a stream of no-op ioctls with
    jittered inter-arrival gaps; latency lands in a per-guest
    {!Sim.Stats} accumulator and every completion folds into an
    order-sensitive digest ({!Paradice.Fleet.digest_mix}) so two runs
    of the same spec can be compared for bit-identity.

    Seeding follows the fleet derivation chain: master seed [S] →
    shard stream [Sim.Rng.derive ~seed:S ~index:shard_id] → one
    shard seed draw → per-guest stream
    [derive ~seed:shard_seed ~index:local_index].  Everything a shard
    touches is shard-local (its spec is immutable), so [run_shard] is
    safe to call from concurrent domains via
    {!Paradice.Fleet.run_shards}. *)

open Oskit
module M = Paradice.Machine

let device_path = "/dev/null0"

type spec = {
  shard_id : int;
  master_seed : int64;
  globals : int array; (* global guest indices served by this shard *)
  ops : int array; (* target op count per guest, aligned with [globals] *)
  config : Paradice.Config.t;
  crash_at_us : float option;
      (* kill + reboot this shard's driver VM at this sim time: the
         crash-isolation case — siblings must be bit-identical to a
         run without it *)
}

type guest_result = {
  g_global : int;
  g_ok : int;
  g_err : int; (* failed operations (only expected under a crash) *)
  g_lat : Sim.Stats.t; (* per-op latency, us *)
}

type result = {
  r_shard : int;
  r_ok : int;
  r_err : int;
  r_recoveries : int; (* successful re-opens after a driver-VM death *)
  r_sim_end_us : float;
  r_digest : int64; (* order-sensitive over every completion *)
  r_guests : guest_result list; (* ascending global index *)
  r_metrics : Obs.Metrics.t; (* per-shard namespace, merged by caller *)
}

(** The owning shard per global guest index: every shard serves the
    one device class, so links go round-robin. *)
let assign ~shards ~guests = Array.init guests (fun g -> g mod shards)

(** Uniform load: every guest issues [base] operations. *)
let uniform_ops ~guests ~base = Array.make guests base

(** Zipf-skewed load over the {e global} guest index: guest [i] gets
    [base * guests * w_i / Σw] ops (≥ 1) with [w_i = 1/(i+1)^alpha] —
    the same skew whatever the shard count, so fairness comparisons
    across fleet sizes see the same offered load. *)
let zipf_ops ~guests ~base ~alpha =
  let w = Array.init guests (fun i -> 1. /. Float.pow (float_of_int (i + 1)) alpha) in
  let total_w = Array.fold_left ( +. ) 0. w in
  let total_ops = float_of_int (base * guests) in
  Array.map (fun wi -> max 1 (int_of_float (Float.round (total_ops *. wi /. total_w)))) w

(** Build one spec per shard for a fleet of [Array.length ops] guests
    ([ops.(g)] = global guest [g]'s op count), guests routed by
    {!assign}.  [crash = (shard, at_us)] arms the driver-VM
    crash+reboot on that shard. *)
let make_specs ~shards ~seed ~ops ?(config = Paradice.Config.default) ?crash () =
  let guests = Array.length ops in
  let owner = assign ~shards ~guests in
  Array.init shards (fun shard_id ->
      let globals =
        Array.to_list owner
        |> List.mapi (fun g s -> (g, s))
        |> List.filter (fun (_, s) -> s = shard_id)
        |> List.map fst |> Array.of_list
      in
      {
        shard_id;
        master_seed = seed;
        globals;
        ops = Array.map (fun g -> ops.(g)) globals;
        config;
        crash_at_us =
          (match crash with
          | Some (s, at) when s = shard_id -> Some at
          | _ -> None);
      })

(* Bounded re-open loop after a driver-VM death: PR 1's recovery path.
   The frontend reattaches on reboot; until then opens fail cleanly. *)
let rec reopen kernel task ~attempts =
  if attempts = 0 then None
  else
    match Vfs.openf kernel task device_path with
    | Ok fd -> Some fd
    | Error _ ->
        Sim.Engine.wait 100_000.;
        reopen kernel task ~attempts:(attempts - 1)

(** Run one shard to completion (its whole simulation, on the calling
    domain) and return its results.  Pure function of [spec]. *)
(* Fleet guests are tiny: the no-op workload touches a handful of
   pages, while every MiB of guest RAM costs an identity EPT mapping
   at VM creation.  At 128 MiB (the default) a 200-link fleet spends
   minutes building page tables and the growing heap turns major GCs
   quadratic in fleet size; at 8 MiB the whole fleet builds in
   fractions of a second.  Same for the per-shard driver VM. *)
let guest_mem_mib = 8

let driver_mem_mib = 32

let run_shard spec =
  let m = M.create ~config:spec.config ~driver_mem_mib () in
  let (_ : Defs.device) = M.attach_null m in
  let engine = M.engine m in
  let n = Array.length spec.globals in
  let shard_rng =
    Sim.Rng.derive ~seed:spec.master_seed ~index:spec.shard_id
  in
  let shard_seed = Sim.Rng.next_int64 shard_rng in
  let metrics = Obs.Metrics.create () in
  let digest = ref Paradice.Fleet.digest_empty in
  let ok = Array.make n 0
  and err = Array.make n 0
  and lat =
    Array.init n (fun i -> Sim.Stats.create (Printf.sprintf "g%d" spec.globals.(i)))
  and recoveries = ref 0 in
  let guests =
    Array.init n (fun i ->
        M.add_guest m ~mem_mib:guest_mem_mib
          ~name:(Printf.sprintf "g%d" spec.globals.(i)) ())
  in
  Array.iteri
    (fun i (g : M.guest) ->
      let global = spec.globals.(i) in
      Sim.Engine.spawn engine ~name:(Printf.sprintf "fleet-g%d" global)
        (fun () ->
          let k = g.M.kernel in
          let app = M.spawn_app m k ~name:(Printf.sprintf "app%d" global) in
          let rng = Sim.Rng.derive ~seed:shard_seed ~index:i in
          match Vfs.openf k app device_path with
          | Error e ->
              failwith
                (Printf.sprintf "fleet g%d: initial open failed: %s" global
                   (Errno.to_string e))
          | Ok fd0 ->
              let fd = ref fd0 in
              for _ = 1 to spec.ops.(i) do
                Sim.Engine.wait (Sim.Rng.float rng 20.);
                let t0 = Sim.Engine.now engine in
                (match Vfs.ioctl k app !fd ~cmd:M.null_ioctl ~arg:0L with
                | Ok 0 ->
                    ok.(i) <- ok.(i) + 1;
                    Sim.Stats.add lat.(i) (Sim.Engine.now engine -. t0)
                | Ok rc ->
                    failwith
                      (Printf.sprintf "fleet g%d: unexpected ioctl rc %d" global rc)
                | Error _ -> (
                    (* driver VM dead (or dying): count the failure and
                       ride PR 1's recovery — reboot, reattach, re-open *)
                    err.(i) <- err.(i) + 1;
                    match reopen k app ~attempts:50 with
                    | Some fd' ->
                        fd := fd';
                        incr recoveries
                    | None ->
                        failwith
                          (Printf.sprintf "fleet g%d: never recovered" global)));
                digest :=
                  Paradice.Fleet.digest_mix_float
                    (Paradice.Fleet.digest_mix !digest (Int64.of_int global))
                    (Sim.Engine.now engine)
              done))
    guests;
  (match spec.crash_at_us with
  | None -> ()
  | Some at ->
      Sim.Engine.spawn engine ~name:"fleet-crash" (fun () ->
          Sim.Engine.wait at;
          M.kill_driver_vm m;
          M.reboot_driver_vm m));
  Sim.Engine.run engine;
  let r_guests =
    List.init n (fun i ->
        {
          g_global = spec.globals.(i);
          g_ok = ok.(i);
          g_err = err.(i);
          g_lat = lat.(i);
        })
  in
  let r_ok = Array.fold_left ( + ) 0 ok and r_err = Array.fold_left ( + ) 0 err in
  Obs.Metrics.incr ~by:r_ok metrics "fleet.ops_ok";
  Obs.Metrics.incr ~by:r_err metrics "fleet.ops_err";
  Obs.Metrics.incr ~by:!recoveries metrics "fleet.recoveries";
  List.iter
    (fun gr -> Sim.Stats.merge_into ~into:(Obs.Metrics.histogram metrics "fleet.lat_us") gr.g_lat)
    r_guests;
  {
    r_shard = spec.shard_id;
    r_ok;
    r_err;
    r_recoveries = !recoveries;
    r_sim_end_us = Sim.Engine.now engine;
    r_digest = !digest;
    r_guests;
    r_metrics = metrics;
  }

(** [run_fleet ?domains specs] — all shards via
    {!Paradice.Fleet.run_shards}, results by shard id. *)
let run_fleet ?domains specs =
  Paradice.Fleet.run_shards ~shards:(Array.length specs) ?domains (fun i ->
      run_shard specs.(i))

(** Fleet-wide per-guest latency accumulators, ascending global index
    (exact pooling across shards). *)
let all_guests results =
  Array.to_list results
  |> List.concat_map (fun r -> r.r_guests)
  |> List.sort (fun a b -> compare a.g_global b.g_global)

(** Fairness: slowest / fastest per-guest mean latency over the fleet
    (1.0 = perfectly fair).  Guests with no completed ops are
    skipped. *)
let fairness results =
  let means =
    all_guests results
    |> List.filter (fun g -> Sim.Stats.count g.g_lat > 0)
    |> List.map (fun g -> Sim.Stats.mean g.g_lat)
  in
  match means with
  | [] -> nan
  | m :: rest ->
      let lo, hi =
        List.fold_left (fun (lo, hi) x -> (Float.min lo x, Float.max hi x)) (m, m) rest
      in
      hi /. lo
