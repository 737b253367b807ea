(** Unbounded FIFO message channel between simulated processes, and
    the simulator's one queue of sleeping processes.

    [send] never blocks; [recv] blocks until a message is available.
    Blocked receivers are woken in FIFO order with one waker call each,
    matching a kernel wait queue's default behaviour; [wake_all] wakes
    them all and buffers nothing. *)

type state = Waiting | Taken | Cancelled

type 'a waiter = { wake : 'a option -> unit; mutable state : state }

type 'a t = {
  engine : Engine.t;
  items : 'a Queue.t;
  waiters : 'a waiter Queue.t;
}

let create engine = { engine; items = Queue.create (); waiters = Queue.create () }

(* Pop waiters until a live one surfaces; Cancelled entries are left
   behind by timed-out receives and are dropped. *)
let rec next_live_waiter t =
  match Queue.take_opt t.waiters with
  | None -> None
  | Some w when w.state = Waiting -> Some w
  | Some _ -> next_live_waiter t

let deliver w v =
  w.state <- Taken;
  w.wake (Some v)

let send t v =
  match next_live_waiter t with
  | Some w -> deliver w v
  | None -> Queue.add v t.items

(* Wakers only schedule resumptions, so no receiver can join the queue
   while it drains: exactly the receivers blocked now are woken. *)
let wake_all t =
  while not (Queue.is_empty t.waiters) do
    let w = Queue.take t.waiters in
    if w.state = Waiting then deliver w ()
  done

let recv t : 'a =
  if not (Queue.is_empty t.items) then Queue.take t.items
  else
    match
      Engine.suspend (fun waker ->
          Queue.add { wake = waker; state = Waiting } t.waiters)
    with
    | Some v -> v
    | None -> assert false

(** [recv_timeout t ~timeout] is [None] when no message arrives within
    [timeout].  The waiter's state field decides the send/timeout race:
    whichever side moves it off [Waiting] first wins, and the loser is
    a no-op.  A timed-out waiter stays queued as [Cancelled] until a
    send or {!wake_all} skips it, so it never swallows (or forces a
    re-dispatch of) a later message. *)
let recv_timeout t ~timeout : 'a option =
  if not (Queue.is_empty t.items) then Some (Queue.take t.items)
  else
    Engine.suspend (fun waker ->
        let w = { wake = waker; state = Waiting } in
        Queue.add w t.waiters;
        Engine.at t.engine ~delay:timeout (fun () ->
            if w.state = Waiting then begin
              w.state <- Cancelled;
              waker None
            end))

(** Blocked receivers currently eligible for a send. *)
let waiting t =
  Queue.fold (fun n w -> if w.state = Waiting then n + 1 else n) 0 t.waiters

let clear t = Queue.clear t.items
