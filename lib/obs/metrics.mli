(** Metrics registry: named counters and {!Sim.Stats} latency
    histograms, fed by {!Trace} spans and transport counters.  All
    dumps are sorted by name, so reports are deterministic. *)

type t

val create : unit -> t

(** Find-or-create the named histogram. *)
val histogram : t -> string -> Sim.Stats.t

(** Record one sample into the named histogram. *)
val observe : t -> string -> float -> unit

val incr : ?by:int -> t -> string -> unit
val count : t -> string -> int
val find_histogram : t -> string -> Sim.Stats.t option
val histograms : t -> (string * Sim.Stats.t) list
val counters : t -> (string * int) list

(** Fold [src] into [into] (exact histogram pooling), each key
    renamed with [prefix] — per-shard namespacing for cross-shard
    aggregation.  [src] is unchanged. *)
val merge : into:t -> ?prefix:string -> t -> unit

val reset : t -> unit
