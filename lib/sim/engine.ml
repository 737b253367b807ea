(** Deterministic discrete-event simulation engine.

    Simulated activities ("processes") are written in direct style and
    suspended/resumed with OCaml 5 effect handlers, SimPy-style: a
    process calls {!wait} to let simulated time pass or {!suspend} to
    block until some other process wakes it.  {!Mailbox} builds the
    simulator's one queue of sleeping processes (with receive
    timeouts) on {!suspend} and {!at}.  The engine owns a single event
    queue ordered by [(time, sequence)] so execution is fully
    deterministic.

    A process whose wake-up would be the next event anyway waits in
    place: {!wait} advances the clock and returns without performing
    its effect (see {!wait} for the exact condition).

    Invariants that the implementation must maintain:
    - every captured continuation is resumed exactly once;
    - a waker never runs the continuation inline: it enqueues an event
      at the current time, so wake-ups cannot reorder the caller's own
      execution;
    - [now] never decreases;
    - [clock.next] is the queue's earliest time, [infinity] when it is
      empty;
    - [in_process] is true only while one of this engine's processes
      runs: entering a process's fiber sets it, and the handler clears
      it whenever control leaves the fiber (an effect, a return or an
      exception). *)

(* An all-float record is stored flat, so advancing the clock, handing
   a wait's delay from the effect handler to its continuation handler,
   and the in-place test of {!wait} on [next] and [limit] (the running
   [run]'s [until]) allocate nothing. *)
type clock = {
  mutable now : float;
  mutable wait_delay : float;
  mutable next : float;
  mutable limit : float;
}

type t = {
  clock : clock;
  mutable seq : int;
  events : (unit -> unit) Heap.t;
  mutable in_process : bool;
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

(* Every push goes through here, so [clock.next] stays the queue's
   earliest time: a pushed time becomes it when it sorts first (or the
   queue was empty), exactly as the heap orders it. *)
let schedule t ~time thunk =
  if time < t.clock.next || Heap.is_empty t.events then t.clock.next <- time;
  Heap.push t.events ~time ~seq:(next_seq t) thunk

(** Schedule a plain callback [delay] after the current time.  Usable
    from inside or outside processes; the callback runs in engine
    context (it may spawn processes or wake suspended ones but must not
    itself call [wait]). *)
let at t ~delay f =
  if delay < 0. then invalid_arg "Engine.at: negative delay";
  schedule t ~time:(t.clock.now +. delay) f

(* The handler every process runs under.  [effc] must return its
   continuation handler in an option; for [Wait] that option is
   allocated once here and reads the delay [effc] parked in the
   clock. *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  let resume_after_wait =
    Some
      (fun (k : (unit, unit) continuation) ->
        schedule t ~time:(t.clock.now +. t.clock.wait_delay) (fun () -> continue k ()))
  in
  let finish () =
    t.in_process <- false;
    t.live_processes <- t.live_processes - 1
  in
  {
    retc = finish;
    exnc = (fun exn -> finish (); raise exn);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        t.in_process <- false;
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
                    schedule t ~time:t.clock.now (fun () -> continue k v)
                  end
                in
                register waker)
        | _ -> None);
  }

let create () =
  let rec t =
    {
      clock = { now = 0.; wait_delay = 0.; next = infinity; limit = infinity };
      seq = 0;
      events = Heap.create ~dummy:ignore;
      in_process = false;
      live_processes = 0;
      spawned = 0;
      handler = lazy (make_handler t);
    }
  in
  t

(* The engine whose [run] is innermost on this domain (fleet shards run
   on parallel domains), or [idle], which never runs a process, when
   there is none.  [run] sets it and restores it on the way out. *)
let idle = create ()
let current = Domain.DLS.new_key (fun () -> idle)

let spawn t ?name f =
  ignore name;
  t.live_processes <- t.live_processes + 1;
  t.spawned <- t.spawned + 1;
  (* Processes start at the current time, not immediately: spawning
     never preempts the spawner. *)
  schedule t ~time:t.clock.now (fun () ->
      t.in_process <- true;
      Effect.Deep.match_with f () (Lazy.force t.handler))

(* Pop and run events in order until the queue drains or the earliest
   event lies past [limit]. *)
let drain t ~limit =
  let clock = t.clock in
  let running = ref true in
  while !running do
    if Heap.is_empty t.events then running := false
    else begin
      let time = clock.next in
      if time > limit then begin
        if limit > clock.now then clock.now <- limit;
        running := false
      end
      else begin
        let thunk = Heap.pop t.events in
        clock.next <- (if Heap.is_empty t.events then infinity else Heap.min_time t.events);
        if time > clock.now then clock.now <- time;
        thunk ()
      end
    end
  done

(** Run until the event queue drains, or until [until] if given (events
    scheduled later stay in the queue and [now] stops at [until], or
    stays where it is if it is already past [until]).  The run owns the
    domain's current-engine slot and [t]'s limit and process flag, and
    puts back what it found, also when an exception escapes. *)
let run ?until t =
  let limit = match until with Some l -> l | None -> infinity in
  let outer = Domain.DLS.get current in
  let outer_limit = t.clock.limit and outer_in_process = t.in_process in
  Domain.DLS.set current t;
  t.clock.limit <- limit;
  t.in_process <- false;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set current outer;
      t.clock.limit <- outer_limit;
      t.in_process <- outer_in_process)
    (fun () -> drain t ~limit)

(** True when processes are still alive but no event can ever wake
    them: the classic lost-wakeup deadlock.  Exposed for tests. *)
let deadlocked t = Heap.is_empty t.events && t.live_processes > 0

let live_processes t = t.live_processes
let spawned t = t.spawned

(* ------------------------------------------------------------------ *)
(* Operations usable inside a process                                  *)
(* ------------------------------------------------------------------ *)

(* In place, the waiter's continuation would have been the next event:
   nothing is due at or before its wake time (strictly, so an event
   already queued at that instant runs first), and the run's limit lets
   it wake.  Skipping its sequence number leaves every other event's
   order unchanged.  After a queued wait the code is back in its fiber,
   so it restores the flag the handler cleared on the way out. *)
let wait (delay : float) : unit =
  let t = Domain.DLS.get current in
  let clock = t.clock in
  let wake = clock.now +. delay in
  if t.in_process && delay >= 0. && wake <= clock.limit && wake < clock.next then
    clock.now <- wake
  else begin
    let inside = t.in_process in
    Effect.perform (Wait delay);
    t.in_process <- inside
  end

(** [suspend register] blocks the calling process.  [register] receives
    a one-shot [waker]; calling [waker v] (from any other process or
    callback) schedules the blocked process to resume at the then
    current time with value [v].  Extra waker calls are ignored. *)
let suspend (register : ('a -> unit) -> unit) : 'a =
  let register_obj (waker : Obj.t -> unit) =
    register (fun (v : 'a) -> waker (Obj.repr v))
  in
  let t = Domain.DLS.get current in
  let inside = t.in_process in
  let v = Effect.perform (Suspend register_obj) in
  t.in_process <- inside;
  Obj.obj v
