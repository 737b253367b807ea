(** Deterministic fault injection: named fault sites, an armed plan
    per site, and a seeded RNG stream so every failure (and therefore
    every recovery) replays identically run-to-run. *)

type spec =
  | Never
  | Always
  | Nth of int
      (** fire exactly on the n-th visit after arming (1-based), one-shot *)
  | Prob of float  (** fire per-visit with this probability (seeded) *)

type t

val create : ?seed:int64 -> unit -> t

(** Arm (or re-arm) the plan for a fault site. *)
val arm : t -> key:string -> spec -> unit

val disarm : t -> key:string -> unit

(** Register a callback run when the site fires — e.g. the machine
    assembly killing the driver VM at an exact, reproducible point. *)
val on_fire : t -> key:string -> (unit -> unit) -> unit

(** Visit the site: did the fault happen this time? *)
val fires : t -> key:string -> bool

exception Injected of string
(** Raised by {!check} with the site key. *)

(** Abort-style fail point: like {!fires} but raises {!Injected} on
    firing, for multi-phase operations that must unwind to a known
    state (upgrade/migration crash sites). *)
val check : t -> key:string -> unit

val fired : t -> key:string -> int

(** [(key, seen, fired)] for every site, sorted by key. *)
val stats : t -> (string * int * int) list
