(** Unbounded FIFO message channel between simulated processes.

    [send] never blocks; [recv] blocks until a message is available.
    Wake order is FIFO over blocked receivers, matching a kernel wait
    queue's default behaviour. *)

type state = Waiting | Taken | Cancelled

type 'a waiter = { wake : 'a option -> unit; mutable state : state }

type 'a t = {
  engine : Engine.t;
  items : 'a Queue.t;
  waiters : 'a waiter Queue.t;
}

let create engine = { engine; items = Queue.create (); waiters = Queue.create () }

(* Pop waiters until a live one surfaces; Taken/Cancelled entries are
   garbage from completed or timed-out receives and are dropped. *)
let rec next_live_waiter t =
  match Queue.take_opt t.waiters with
  | None -> None
  | Some w when w.state = Waiting -> Some w
  | Some _ -> next_live_waiter t

let send t v =
  match next_live_waiter t with
  | Some w ->
      w.state <- Taken;
      w.wake (Some v)
  | None -> Queue.add v t.items

let recv t : 'a =
  match Queue.take_opt t.items with
  | Some v -> v
  | None ->
      (match
         Engine.suspend (fun waker ->
             Queue.add { wake = waker; state = Waiting } t.waiters)
       with
      | Some v -> v
      | None -> assert false)

let remove_waiter t w =
  let keep = Queue.create () in
  Queue.iter (fun o -> if o != w then Queue.add o keep) t.waiters;
  Queue.clear t.waiters;
  Queue.transfer keep t.waiters

(** [recv_timeout t ~timeout] is [None] when no message arrives within
    [timeout].  A timed-out waiter is removed from the queue, so it
    can never swallow (or force a re-dispatch of) a later send.  The
    waiter's state field decides the send/timeout race: whichever side
    transitions it away from [Waiting] first wins, the loser is a
    no-op. *)
let recv_timeout t ~timeout : 'a option =
  match Queue.take_opt t.items with
  | Some v -> Some v
  | None ->
      Engine.suspend (fun waker ->
          let w = { wake = waker; state = Waiting } in
          Queue.add w t.waiters;
          Engine.at t.engine ~delay:timeout (fun () ->
              if w.state = Waiting then begin
                w.state <- Cancelled;
                remove_waiter t w;
                waker None
              end))

(** Blocked receivers currently eligible for a send. *)
let waiting t =
  Queue.fold (fun n w -> if w.state = Waiting then n + 1 else n) 0 t.waiters

let is_empty t = Queue.is_empty t.items
