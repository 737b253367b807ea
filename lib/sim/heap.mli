(** Binary min-heap for the event queue, keyed by [(time, seq)] so
    same-time events pop in insertion order (determinism). *)

type 'a entry = { time : float; seq : int; value : 'a }
type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> time:float -> seq:int -> 'a -> unit
val pop : 'a t -> 'a entry option
val peek : 'a t -> 'a entry option
