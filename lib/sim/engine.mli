(** Deterministic discrete-event simulation engine.

    Simulated activities ("processes") are written in direct style and
    suspended/resumed with OCaml 5 effect handlers: a process calls
    {!wait} to let simulated time pass, or {!suspend} to block until
    another process wakes it; {!Mailbox} queues blocked processes on
    top of {!suspend}.  One engine owns one event queue ordered by
    [(time, sequence)], making execution fully deterministic. *)

type t

exception Deadlock of string

(** Create an engine with its clock at 0. *)
val create : unit -> t

(** Current simulated time, in microseconds: every delay, timeout and
    cost in the model is a float count of microseconds. *)
val now : t -> float

(** Schedule a plain callback [delay] after the current time.  The
    callback runs in engine context: it may spawn processes or call
    wakers, but must not itself perform {!wait}. *)
val at : t -> delay:float -> (unit -> unit) -> unit

(** Start a new process at the current time.  Spawning never preempts
    the spawner. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** Run until the event queue drains, or until [until] if given
    (later events stay queued and the clock stops at [until]; a limit
    already behind the clock leaves it where it is).  While it runs,
    [run] owns the domain's current-engine slot, which {!wait} reads:
    it sets the slot to [t] and [t]'s limit to [until], and restores
    both when it returns or an exception escapes, so a process may run
    another engine (or its own) and go on waiting in place. *)
val run : ?until:float -> t -> unit

(** True when live processes remain but no event can ever wake them. *)
val deadlocked : t -> bool

val live_processes : t -> int
val spawned : t -> int

(** {1 Operations usable only inside a process} *)

(** Let [delay] microseconds of simulated time pass.  When the waiter's
    wake-up would be the engine's next event anyway, [wait] sets the
    clock to [now + delay] and returns in place, with no effect and no
    queue traffic.  That needs all of: the caller is a process of the
    engine whose {!run} is innermost on this domain; [delay >= 0];
    [now + delay] is within that run's [until]; and no queued event is
    due at or before [now + delay] (strictly: an event already queued
    at that instant runs first).  Otherwise the process is suspended
    and queued at [now + delay] behind every event already there.
    Either way every simulated outcome is the same.  A negative delay
    raises [Invalid_argument] in the process; a wait outside any
    process (in a callback, or with no run active) raises
    [Effect.Unhandled]. *)
val wait : float -> unit

(** [suspend register] blocks the calling process.  [register]
    receives a one-shot waker; calling it (from any other process or
    callback) schedules the blocked process to resume at the
    then-current time with the given value.  Extra waker calls are
    ignored. *)
val suspend : (('a -> unit) -> unit) -> 'a
