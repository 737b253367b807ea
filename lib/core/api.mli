(** Paradice public API — one-stop entry points; see {!Machine} for
    the full builder vocabulary and [examples/] for programs. *)

val version : string

(** Boot an empty Paradice machine (hypervisor + driver VM). *)
val boot : ?config:Config.t -> unit -> Machine.t

(** Run the simulation until quiescent (or [until] µs). *)
val run : ?until:float -> Machine.t -> unit

val now : Machine.t -> float
