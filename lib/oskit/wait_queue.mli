(** Kernel wait queues: processes sleep until a driver wakes them.  A
    wait queue is a mailbox woken only by [wake_all], so it holds no
    pending wakeup. *)

type t

val create : Sim.Engine.t -> t

(** Block until woken. *)
val sleep : t -> unit

(** [false] when [timeout] microseconds pass first. *)
val sleep_timeout : t -> timeout:float -> bool

(** Wake every sleeper; with nobody asleep the wake is lost. *)
val wake_all : t -> unit
