(** Fleet runtime: run independent shards in parallel on OCaml 5
    domains.

    A {e shard} is a self-contained slice of the fleet — its own
    {!Sim.Engine}, physical memory, hypervisor, driver VM(s) and guest
    links, typically assembled as one {!Machine} per shard.  Shards
    share {e no} mutable simulation state (PR 8 removed the last
    process-global counters), so they may execute on concurrent
    domains; cross-shard interaction happens only before they start
    (assigning guests to shards) and after they finish (result
    aggregation, {!Sim.Stats.merge} / [Obs.Metrics.merge]).

    Determinism contract: a shard's simulated-time results are a pure
    function of its inputs (spec + derived seed, {!Sim.Rng.derive}).
    The domain count only changes wall-clock speed — running shard 3
    on 1 domain or 8 yields bit-identical per-shard output.  The
    fleet-suite enforces this.

    Scheduling is static: shard [i] runs on domain [i mod domains],
    each domain executing its shards in ascending order.  Static
    assignment keeps even the wall-clock execution order reproducible
    given the same domain count (no work-stealing nondeterminism), and
    shards of a well-balanced placement carry similar work anyway. *)

(** [run_shards ~shards ?domains f] evaluates [f shard_id] for every
    shard id in [0, shards), distributing the calls over [domains]
    OCaml domains (default: [Domain.recommended_domain_count],
    clamped to [shards]); [domains = 1] degenerates to a plain
    sequential loop on the calling domain — the reference schedule
    determinism checks compare against.  Returns results indexed by
    shard id.  If any shard raises, every other shard still runs to
    completion (they are independent), then the lowest-numbered
    shard's exception is re-raised. *)
let run_shards ~shards ?domains f =
  if shards <= 0 then invalid_arg "Fleet.run_shards: shards must be positive";
  let domains =
    match domains with
    | Some d ->
        if d <= 0 then invalid_arg "Fleet.run_shards: domains must be positive";
        min d shards
    | None -> max 1 (min shards (Domain.recommended_domain_count ()))
  in
  let results = Array.make shards None in
  let errors = Array.make shards None in
  (* disjoint indices per domain: no two domains touch the same cell *)
  let run_one i =
    match f i with
    | v -> results.(i) <- Some v
    | exception e -> errors.(i) <- Some e
  in
  let run_domain d =
    let i = ref d in
    while !i < shards do
      run_one !i;
      i := !i + domains
    done
  in
  if domains = 1 then run_domain 0
  else begin
    (* domain 0's share runs here on the calling domain *)
    let workers =
      Array.init (domains - 1) (fun k -> Domain.spawn (fun () -> run_domain (k + 1)))
    in
    run_domain 0;
    Array.iter Domain.join workers
  end;
  Array.iteri (fun _ e -> match e with Some e -> raise e | None -> ()) errors;
  Array.map Option.get results

(* ---- order-sensitive result digests ----

   Shard results are compared for bit-identity across domain counts by
   digesting every completion event in order.  The mix must be
   order-sensitive (a permutation of the same events is a different
   schedule, and must be caught), so each step multiplies the
   accumulator before folding the value in — SplitMix64's finalizer
   supplies the avalanche. *)

let digest_empty = 0x9E3779B97F4A7C15L

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Fold one 64-bit event into a digest (order-sensitive). *)
let digest_mix acc v = mix64 (Int64.add (Int64.mul acc 0xD1B54A32D192ED03L) v)

(** Fold a float event (e.g. a simulated timestamp) bit-exactly. *)
let digest_mix_float acc v = digest_mix acc (Int64.bits_of_float v)
