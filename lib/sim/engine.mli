(** Deterministic discrete-event simulation engine.

    Simulated activities ("processes") are written in direct style and
    suspended/resumed with OCaml 5 effect handlers: a process calls
    {!wait} to let simulated time pass, or {!suspend} to block until
    another process wakes it.  One engine owns one event queue ordered
    by [(time, sequence)], making execution fully deterministic. *)

type t

exception Deadlock of string

(** Create an engine with its clock at 0. *)
val create : unit -> t

(** Current simulated time (microseconds by convention; see
    {!Timeunit}). *)
val now : t -> float

(** Schedule a plain callback [delay] after the current time.  The
    callback runs in engine context: it may spawn processes or call
    wakers, but must not itself perform {!wait}. *)
val at : t -> delay:float -> (unit -> unit) -> unit

(** Start a new process at the current time.  Spawning never preempts
    the spawner. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** Run until the event queue drains, or until [until] if given
    (later events stay queued and the clock stops at [until]). *)
val run : ?until:float -> t -> unit

(** True when live processes remain but no event can ever wake them. *)
val deadlocked : t -> bool

val live_processes : t -> int
val spawned : t -> int

(** {1 Operations usable only inside a process} *)

(** Let [delay] microseconds of simulated time pass. *)
val wait : float -> unit

(** Re-enter the scheduler without advancing time. *)
val yield : unit -> unit

(** [suspend register] blocks the calling process.  [register]
    receives a one-shot waker; calling it (from any other process or
    callback) schedules the blocked process to resume at the
    then-current time with the given value.  Extra waker calls are
    ignored. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** [suspend_timeout t ~timeout register] is [Some v] if a waker fires
    before [timeout] elapses, [None] otherwise; the loser of the race
    is disarmed. *)
val suspend_timeout : t -> timeout:float -> (('a option -> unit) -> unit) -> 'a option
