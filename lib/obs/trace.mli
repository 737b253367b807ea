(** Span-based tracing for the CVD pipeline on simulated time.

    A trace id is minted per forwarded operation and carried in its
    descriptor; every pipeline stage opens a span against it.  The
    tracer only {e reads} the simulation clock — it never waits — so
    enabling it cannot perturb a simulated-time result, and the
    {!disabled} sink makes it zero-cost when off.  Completed spans are
    the one record of durations: the per-["cat.name"] distributions
    ({!histograms}) and the Chrome trace-event exporter
    ({!to_chrome_json}, Perfetto-loadable) are views of them. *)

type lane = Frontend | Transport | Ring | Backend | Hypervisor | Machine

type span

type completed = {
  c_trace : int;
  c_lane : lane;
  c_cat : string;
  c_name : string;
  c_start : float;
  c_dur : float;
  c_stop : float;  (** the clock reading that closed the span *)
  c_status : string;
  c_args : (string * float) list;
}

type counter_event = {
  k_lane : lane;
  k_name : string;
  k_ts : float;
  k_value : float;
}

type t

(** The shared no-op sink: every operation is a single boolean check. *)
val disabled : t

val create : unit -> t
val enabled : t -> bool

(** Point the tracer at the owning engine's clock
    ([fun () -> Sim.Engine.now engine]); {!Machine.create} does this. *)
val attach_clock : t -> (unit -> float) -> unit

(** Fresh per-operation trace id; 0 ("untraced") when disabled. *)
val mint_id : t -> int

(** Open a span.  Returns a shared dummy (nothing recorded) when the
    sink is disabled or [trace] is 0. *)
val span_begin : t -> trace:int -> lane:lane -> cat:string -> name:string -> unit -> span

(** As {!span_begin}, but the name is [name x], computed only when the
    span is recorded: an untraced call builds no string. *)
val span_begin_by :
  t -> trace:int -> lane:lane -> cat:string -> name:('a -> string) -> 'a -> span

(** The span {!span_begin} returns when nothing is recorded: closing
    it does nothing.  A placeholder for a span field. *)
val no_span : span

(** Attach a numeric argument to a still-open span. *)
val span_arg : span -> string -> float -> unit

(** Close a span; idempotent, so an {!abort_open} sweep and a
    [Fun.protect] finaliser may both close the same span safely. *)
val span_end : ?status:string -> t -> span -> unit

(** Record an already-finished span from [start] to [stop], whose
    trace id was only known at the end (e.g. the backend drain reads
    it from the descriptor). *)
val add_complete :
  t -> trace:int -> lane:lane -> cat:string -> name:string -> start:float -> stop:float -> unit

(** Run [f] inside a span; an escaping exception closes it with
    status ["error"] before re-raising. *)
val with_span :
  t -> trace:int -> lane:lane -> cat:string -> name:string -> (unit -> 'a) -> 'a

(** Emit one sample of a numeric counter series (Chrome "C" event). *)
val counter : t -> lane:lane -> name:string -> float -> unit

(** Close every open span with status ["error:reason"], in creation
    order; returns how many were closed.  Run on session fault so no
    trace state leaks across a reattach. *)
val abort_open : t -> reason:string -> int

val open_count : t -> int

(** Completed spans, in completion order. *)
val completed : t -> completed list

(** Counter samples, in emission order. *)
val counter_events : t -> counter_event list

(** Duration distribution of every completed span per ["cat.name"]
    key (e.g. ["op.ioctl"], ["stage.doorbell:req"]), sorted by key. *)
val histograms : t -> (string * Sim.Stats.t) list

(** Drop recorded events and open-span state; ids keep counting. *)
val reset : t -> unit

(** Serialise as a Chrome trace-event JSON array (Perfetto-loadable):
    metadata process names per lane, a "ph":"X" event per span with
    [tid] = trace id, a "ph":"C" event per counter sample; [ts]/[dur]
    are simulated microseconds. *)
val to_chrome_json : t -> string

type reconciliation = {
  r_ops : int;  (** operations with both an op span and stage spans *)
  r_max_gap_us : float;
      (** worst, over ops, of the time in the op covered by no stage,
          plus the time covered by more than one (once per extra
          stage), plus stage time outside the op; exactly 0 when the
          stages tile *)
}

(** Per-trace check that the ["stage"] spans tile the end-to-end
    ["op"] span — the executable §6.1 cost breakdown. *)
val reconcile : t -> reconciliation
