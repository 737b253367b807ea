(** Counting semaphore for simulated processes. *)

type t

(** [create n] has [n] units available; [capacity] (default unbounded)
    bounds how many {!release}s may accumulate. *)
val create : ?capacity:int -> int -> t

(** Take one unit, blocking the calling process until available. *)
val acquire : t -> unit

(** Return one unit, waking the longest waiter if any. *)
val release : t -> unit

(** Bracket [f] between {!acquire}/{!release}; releases on exception. *)
val with_resource : t -> (unit -> 'a) -> 'a
