(** Kernel wait queues: processes sleep until a driver wakes them. *)

type t

val create : Sim.Engine.t -> t

(** Block until woken. *)
val sleep : t -> unit

(** [false] on timeout; a wakeup landing on a timed-out sleeper is
    passed on to a live one. *)
val sleep_timeout : t -> timeout:float -> bool

val wake_all : t -> unit
