(** Binary min-heap for the event queue, keyed by [(time, seq)] so
    same-time events pop in insertion order (determinism).  Stored as
    a structure of arrays (times, tie keys, values); a vacated cell is
    reset to [dummy], so a popped value is never retained. *)

type 'a t

val create : dummy:'a -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** Time of the earliest entry.  Raises [Invalid_argument] when
    empty. *)
val min_time : 'a t -> float

(** Remove and return the earliest entry's value.  Raises
    [Invalid_argument] when empty. *)
val pop : 'a t -> 'a
