(** Sample accumulator with exact percentiles (keeps all samples). *)

type t

(** [create name]: the name only labels the call site; it is not
    stored. *)
val create : string -> t
val add : t -> float -> unit
val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
val max_value : t -> float
val median : t -> float

(** [percentile t p] for [p] in [\[0, 100\]]. *)
val percentile : t -> float -> float

val p99 : t -> float
val p999 : t -> float

(** Fold [t]'s samples into [into] (exact: equals pooling the raw
    samples); [t] is unchanged. *)
val merge_into : into:t -> t -> unit

(** Pool the given accumulators into a fresh one. *)
val merge : t list -> t
