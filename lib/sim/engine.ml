(** Deterministic discrete-event simulation engine.

    Simulated activities ("processes") are written in direct style and
    suspended/resumed with OCaml 5 effect handlers, SimPy-style: a
    process calls {!wait} to let simulated time pass or {!suspend} to
    block until some other process wakes it.  The engine owns a single
    event queue ordered by [(time, sequence)] so execution is fully
    deterministic.

    Invariants that the implementation must maintain:
    - every captured continuation is resumed exactly once;
    - a waker never runs the continuation inline: it enqueues an event
      at the current time, so wake-ups cannot reorder the caller's own
      execution;
    - [now] never decreases. *)

type t = {
  mutable now : float;
  mutable seq : int;
  events : (unit -> unit) Heap.t;
  mutable live_processes : int;
  mutable spawned : int;
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

let create () =
  { now = 0.; seq = 0; events = Heap.create (); live_processes = 0; spawned = 0 }

let now t = t.now

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
  Heap.push t.events ~time:(t.now +. delay) ~seq:(next_seq t) f

let effective_handler t =
  let open Effect.Deep in
  {
    retc = (fun () -> t.live_processes <- t.live_processes - 1);
    exnc = (fun exn -> t.live_processes <- t.live_processes - 1; raise exn);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Wait delay ->
            Some
              (fun (k : (a, unit) continuation) ->
                if delay < 0. then
                  discontinue k (Invalid_argument "Engine.wait: negative delay")
                else
                  Heap.push t.events ~time:(t.now +. delay) ~seq:(next_seq t)
                    (fun () -> continue k ()))
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let resumed = ref false in
                let waker v =
                  if not !resumed then begin
                    resumed := true;
                    Heap.push t.events ~time:t.now ~seq:(next_seq t)
                      (fun () -> continue k v)
                  end
                in
                register waker)
        | _ -> None);
  }

let spawn t ?name f =
  ignore name;
  t.live_processes <- t.live_processes + 1;
  t.spawned <- t.spawned + 1;
  (* Processes start at the current time, not immediately: spawning
     never preempts the spawner. *)
  Heap.push t.events ~time:t.now ~seq:(next_seq t) (fun () ->
      Effect.Deep.match_with f () (effective_handler t))

(** Run until the event queue drains, or until [until] if given (events
    scheduled later stay in the queue and [now] stops at [until]). *)
let run ?until t =
  let continue_loop = ref true in
  while !continue_loop do
    match Heap.peek t.events with
    | None -> continue_loop := false
    | Some entry ->
        (match until with
        | Some limit when entry.Heap.time > limit ->
            t.now <- limit;
            continue_loop := false
        | _ ->
            (match Heap.pop t.events with
            | None -> assert false
            | Some { Heap.time; value = thunk; _ } ->
                if time > t.now then t.now <- time;
                thunk ()))
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

let yield () = wait 0.

(** [suspend register] blocks the calling process.  [register] receives
    a one-shot [waker]; calling [waker v] (from any other process or
    callback) schedules the blocked process to resume at the then
    current time with value [v].  Extra waker calls are ignored. *)
let suspend (register : ('a -> unit) -> unit) : 'a =
  let register_obj (waker : Obj.t -> unit) =
    register (fun (v : 'a) -> waker (Obj.repr v))
  in
  Obj.obj (Effect.perform (Suspend register_obj))

(** [suspend_timeout t ~timeout register] is [Some v] if a waker fires
    before [timeout] elapses, [None] otherwise.  The loser of the race
    is disarmed. *)
let suspend_timeout t ~timeout (register : ('a option -> unit) -> unit) :
    'a option =
  suspend (fun waker ->
      register (fun v -> waker v);
      at t ~delay:timeout (fun () -> waker None))
