(** Standard fleet workload: one {!Paradice.Machine} per shard serving
    the null device to a slice of the fleet's guests, each issuing
    jittered no-op ioctls.  Pure function of the spec — safe to run on
    concurrent domains via {!Paradice.Fleet.run_shards}.  Seeding:
    master seed → [derive ~index:shard_id] → per-guest streams. *)

val device_path : string

type spec = {
  shard_id : int;
  master_seed : int64;
  globals : int array;  (** global guest indices served by this shard *)
  ops : int array;  (** target op count per guest, aligned with [globals] *)
  config : Paradice.Config.t;
  crash_at_us : float option;
      (** kill + reboot this shard's driver VM at this sim time *)
}

type guest_result = {
  g_global : int;
  g_ok : int;
  g_err : int;  (** failed ops (expected only under a crash) *)
  g_lat : Sim.Stats.t;  (** per-op latency, us *)
}

type result = {
  r_shard : int;
  r_ok : int;
  r_err : int;
  r_recoveries : int;  (** successful re-opens after a driver-VM death *)
  r_sim_end_us : float;
  r_digest : int64;  (** order-sensitive over every completion *)
  r_guests : guest_result list;  (** ascending global index *)
  r_metrics : Obs.Metrics.t;  (** per-shard namespace, merged by caller *)
}

(** Owning shard per global guest index: round-robin, since every
    shard serves the one device class. *)
val assign : shards:int -> guests:int -> int array

val uniform_ops : guests:int -> base:int -> int array

(** Zipf weights over the global guest index (same skew whatever the
    shard count); each guest gets ≥ 1 op. *)
val zipf_ops : guests:int -> base:int -> alpha:float -> int array

(** One spec per shard; [crash = (shard, at_us)] arms the driver-VM
    crash+reboot on that shard. *)
val make_specs :
  shards:int ->
  seed:int64 ->
  ops:int array ->
  ?config:Paradice.Config.t ->
  ?crash:int * float ->
  unit ->
  spec array

(** Run one shard's whole simulation on the calling domain. *)
val run_shard : spec -> result

(** All shards via {!Paradice.Fleet.run_shards}; results by shard id. *)
val run_fleet : ?domains:int -> spec array -> result array

(** Per-guest results fleet-wide, ascending global index. *)
val all_guests : result array -> guest_result list

(** Slowest/fastest per-guest mean latency (1.0 = perfectly fair). *)
val fairness : result array -> float
