(** Deterministic discrete-event simulation engine.

    Simulated activities ("processes") are written in direct style and
    suspended/resumed with OCaml 5 effect handlers, SimPy-style: a
    process calls {!wait} to let simulated time pass or {!suspend} to
    block until some other process wakes it.  {!Mailbox} builds the
    simulator's one queue of sleeping processes (with receive
    timeouts) on {!suspend} and {!at}.  The engine owns a single event
    queue ordered by [(time, sequence)] so execution is fully
    deterministic.

    Invariants that the implementation must maintain:
    - every captured continuation is resumed exactly once;
    - a waker never runs the continuation inline: it enqueues an event
      at the current time, so wake-ups cannot reorder the caller's own
      execution;
    - [now] never decreases. *)

(* An all-float record is stored flat, so advancing the clock, and
   handing a wait's delay from the effect handler to its continuation
   handler, allocate nothing. *)
type clock = { mutable now : float; mutable wait_delay : float }

type t = {
  clock : clock;
  mutable seq : int;
  events : (unit -> unit) Heap.t;
  mutable live_processes : int;
  mutable spawned : int;
  handler : (unit, unit) Effect.Deep.handler Lazy.t;
      (* one handler serves every process of this engine *)
}

type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Suspend : ((Obj.t -> unit) -> unit) -> Obj.t Effect.t

(* The [Suspend] payload is monomorphised through [Obj.t] because an
   effect declaration cannot be polymorphic in its result while still
   being matched generically in one handler.  The [suspend] wrapper
   below re-establishes type safety: the value passed to the waker is
   the value returned by [suspend], with no other reader. *)

exception Deadlock of string

let now t = t.clock.now

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

(** Schedule a plain callback [delay] after the current time.  Usable
    from inside or outside processes; the callback runs in engine
    context (it may spawn processes or wake suspended ones but must not
    itself call [wait]). *)
let at t ~delay f =
  if delay < 0. then invalid_arg "Engine.at: negative delay";
  Heap.push t.events ~time:(t.clock.now +. delay) ~seq:(next_seq t) f

(* The handler every process runs under.  [effc] must return its
   continuation handler in an option; for [Wait] that option is
   allocated once here and reads the delay [effc] parked in the
   clock. *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  let resume_after_wait =
    Some
      (fun (k : (unit, unit) continuation) ->
        Heap.push t.events ~time:(t.clock.now +. t.clock.wait_delay)
          ~seq:(next_seq t) (fun () -> continue k ()))
  in
  {
    retc = (fun () -> t.live_processes <- t.live_processes - 1);
    exnc = (fun exn -> t.live_processes <- t.live_processes - 1; raise exn);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Wait delay ->
            if delay < 0. then
              Some
                (fun (k : (a, unit) continuation) ->
                  discontinue k (Invalid_argument "Engine.wait: negative delay"))
            else begin
              t.clock.wait_delay <- delay;
              (resume_after_wait : ((a, unit) continuation -> unit) option)
            end
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let resumed = ref false in
                let waker v =
                  if not !resumed then begin
                    resumed := true;
                    Heap.push t.events ~time:t.clock.now ~seq:(next_seq t)
                      (fun () -> continue k v)
                  end
                in
                register waker)
        | _ -> None);
  }

let create () =
  let rec t =
    {
      clock = { now = 0.; wait_delay = 0. };
      seq = 0;
      events = Heap.create ~dummy:ignore;
      live_processes = 0;
      spawned = 0;
      handler = lazy (make_handler t);
    }
  in
  t

let spawn t ?name f =
  ignore name;
  t.live_processes <- t.live_processes + 1;
  t.spawned <- t.spawned + 1;
  let handler = Lazy.force t.handler in
  (* Processes start at the current time, not immediately: spawning
     never preempts the spawner. *)
  Heap.push t.events ~time:t.clock.now ~seq:(next_seq t) (fun () ->
      Effect.Deep.match_with f () handler)

(** Run until the event queue drains, or until [until] if given (events
    scheduled later stay in the queue and [now] stops at [until], or
    stays where it is if it is already past [until]). *)
let run ?until t =
  let limit = match until with Some l -> l | None -> infinity in
  let clock = t.clock in
  let running = ref true in
  while !running do
    if Heap.is_empty t.events then running := false
    else begin
      let time = Heap.min_time t.events in
      if time > limit then begin
        if limit > clock.now then clock.now <- limit;
        running := false
      end
      else begin
        let thunk = Heap.pop t.events in
        if time > clock.now then clock.now <- time;
        thunk ()
      end
    end
  done

(** True when processes are still alive but no event can ever wake
    them: the classic lost-wakeup deadlock.  Exposed for tests. *)
let deadlocked t = Heap.is_empty t.events && t.live_processes > 0

let live_processes t = t.live_processes
let spawned t = t.spawned

(* ------------------------------------------------------------------ *)
(* Operations usable inside a process                                  *)
(* ------------------------------------------------------------------ *)

let wait (delay : float) : unit = Effect.perform (Wait delay)

(** [suspend register] blocks the calling process.  [register] receives
    a one-shot [waker]; calling [waker v] (from any other process or
    callback) schedules the blocked process to resume at the then
    current time with value [v].  Extra waker calls are ignored. *)
let suspend (register : ('a -> unit) -> unit) : 'a =
  let register_obj (waker : Obj.t -> unit) =
    register (fun (v : 'a) -> waker (Obj.repr v))
  in
  Obj.obj (Effect.perform (Suspend register_obj))
