(* Fleet determinism / isolation suite, run by `dune build @check` (or
   @fleet-suite).  Checks, on the standard fleet workload:

   1. determinism under parallelism: with a fixed master seed, every
      shard's simulated-time results (order-sensitive digest, op
      counts, sim end time) are bit-identical whether the shards run
      sequentially on 1 domain or spread over N;
   2. fairness under skew: a Zipf-skewed offered load does not starve
      the cold guests — per-guest mean latency spread stays small
      (per-guest rings and caps are the isolation substrate);
   3. crash isolation: a driver-VM crash + reboot (PR 1 recovery) on
      one shard leaves every sibling shard's results bit-identical to
      a run without the crash, while the crashed shard itself sees
      errors and recovers. *)

module F = Paradice.Fleet
module FL = Workloads.Fleet_load

let seed = 0xF1EE7L
let shards = 4
let guests = 48
let base_ops = 12
let violations = ref []

let violation fmt =
  Printf.ksprintf (fun s -> violations := s :: !violations) fmt

let fingerprint (r : FL.result) =
  (r.FL.r_shard, r.FL.r_ok, r.FL.r_err, r.FL.r_digest, r.FL.r_sim_end_us)

let () =
  (* -- 1: same seed, 1 domain vs N domains -- *)
  let specs = FL.make_specs ~shards ~seed ~ops:(FL.uniform_ops ~guests ~base:base_ops) () in
  let seq = FL.run_fleet ~domains:1 specs in
  let par =
    FL.run_fleet ~domains:(max 2 (min shards (Domain.recommended_domain_count ()))) specs
  in
  Array.iteri
    (fun i r ->
      if fingerprint r <> fingerprint par.(i) then
        violation "shard %d: sequential and parallel runs diverge" i)
    seq;
  Array.iter
    (fun (r : FL.result) ->
      if r.FL.r_err <> 0 then violation "shard %d: %d errored ops" r.FL.r_shard r.FL.r_err)
    seq;
  let total_ok = Array.fold_left (fun a r -> a + r.FL.r_ok) 0 seq in
  if total_ok <> guests * base_ops then
    violation "uniform fleet completed %d ops, wanted %d" total_ok (guests * base_ops);

  (* per-guest latency streams must also replay exactly *)
  let lat_digest results =
    List.fold_left
      (fun acc (g : FL.guest_result) ->
        F.digest_mix_float
          (F.digest_mix acc (Int64.of_int g.FL.g_global))
          (Sim.Stats.sum g.FL.g_lat))
      F.digest_empty (FL.all_guests results)
  in
  if lat_digest seq <> lat_digest par then
    violation "per-guest latency streams diverge across domain counts";

  (* -- 2: Zipf skew stays fair -- *)
  let zspecs =
    FL.make_specs ~shards ~seed ~ops:(FL.zipf_ops ~guests ~base:base_ops ~alpha:1.0) ()
  in
  let zres = FL.run_fleet zspecs in
  let fair = FL.fairness zres in
  if Float.is_nan fair || fair > 3.0 then
    violation "zipf fairness %.2f exceeds 3.0 (per-guest isolation failed)" fair;

  (* -- 3: one shard's crash does not perturb siblings -- *)
  let crash_shard = 1 in
  let cspecs =
    FL.make_specs ~shards ~seed ~ops:(FL.uniform_ops ~guests ~base:base_ops)
      ~crash:(crash_shard, 300.) ()
  in
  let cres = FL.run_fleet cspecs in
  Array.iteri
    (fun i (r : FL.result) ->
      if i = crash_shard then begin
        if r.FL.r_err = 0 then violation "crash shard saw no errored ops";
        if r.FL.r_recoveries = 0 then violation "crash shard never recovered";
        if r.FL.r_ok + r.FL.r_err < Array.fold_left ( + ) 0 cspecs.(i).FL.ops then
          violation "crash shard lost operations"
      end
      else if fingerprint r <> fingerprint seq.(i) then
        violation "sibling shard %d perturbed by shard %d's crash" i crash_shard)
    cres;

  (match !violations with
  | [] ->
      Printf.printf
        "fleet suite: %d shards x %d guests, %d ops; 1-vs-N domains identical, \
         zipf fairness %.2f, crash isolated (shard %d: %d errs, %d recoveries): OK\n"
        shards guests total_ok fair crash_shard
        cres.(crash_shard).FL.r_err
        cres.(crash_shard).FL.r_recoveries
  | vs ->
      List.iter (fun v -> Printf.eprintf "fleet suite VIOLATION: %s\n" v) (List.rev vs);
      exit 1)
