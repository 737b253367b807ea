(* A reference model of the engine's queued semantics, for the property
   test that in-place waits change no simulated outcome.  Every spawn,
   wait, wake-up and callback is an event on one queue ordered by
   (time, sequence number), and [run] pops them one at a time: there is
   no in-place path.  Processes are scripts of steps interpreted one
   step at a time, so the model needs no effect handler; a process
   blocked on a mailbox is a waiter holding the rest of its script.
   The mailbox follows [Sim.Mailbox]: FIFO waiters, one wake-up each,
   and a receive timeout armed when the receiver blocks. *)

type step =
  | Wait of float
  | Send of int * int (* mailbox, value *)
  | Recv of int
  | Recv_timeout of int * float (* mailbox, timeout *)
  | At of float * int * int (* a callback after [delay] sends a value to a mailbox *)

(* Processes, each a script run from time 0, and the [run ~until]
   limits to stop at before the final run. *)
type script = { procs : step list list; slices : float list }

(* (time, process, step, what happened); the driver logs its slice and
   end lines as process -1. *)
type entry = float * int * int * string

let mailboxes = 2

type waiter = { mutable state : [ `Waiting | `Taken | `Cancelled ]; wake : int option -> unit }
type event = { time : float; seq : int; run : unit -> unit }

type t = {
  mutable now : float;
  mutable seq : int;
  mutable queue : event list; (* sorted by (time, seq) *)
  items : int Queue.t array;
  waiters : waiter Queue.t array;
  mutable live : int;
  mutable log : entry list;
}

let note m p i what = m.log <- (m.now, p, i, what) :: m.log

let schedule m ~delay run =
  let e = { time = m.now +. delay; seq = m.seq; run } in
  m.seq <- m.seq + 1;
  let rec insert = function
    | x :: rest when (x.time, x.seq) < (e.time, e.seq) -> x :: insert rest
    | l -> e :: l
  in
  m.queue <- insert m.queue

let rec next_live_waiter q =
  match Queue.take_opt q with
  | Some w when w.state = `Waiting -> Some w
  | Some _ -> next_live_waiter q
  | None -> None

let send m mb v =
  match next_live_waiter m.waiters.(mb) with
  | Some w ->
      w.state <- `Taken;
      w.wake (Some v)
  | None -> Queue.add v m.items.(mb)

let got = function Some v -> Printf.sprintf "got %d" v | None -> "timed out"

(* Run process [p] from step [i] until it blocks or its script ends. *)
let rec proceed m p i = function
  | [] -> m.live <- m.live - 1
  | step :: rest -> (
      let next () = proceed m p (i + 1) rest in
      (* a blocked process resumes as a fresh event at the time it is woken *)
      let block mb =
        let wake v = schedule m ~delay:0. (fun () -> note m p i (got v); next ()) in
        let w = { state = `Waiting; wake } in
        Queue.add w m.waiters.(mb);
        w
      in
      match step with
      | Wait d -> schedule m ~delay:d (fun () -> note m p i "waited"; next ())
      | Send (mb, v) ->
          send m mb v;
          note m p i "sent";
          next ()
      | At (d, mb, v) ->
          schedule m ~delay:d (fun () -> note m p i "fired"; send m mb v);
          note m p i "armed";
          next ()
      | (Recv mb | Recv_timeout (mb, _)) when not (Queue.is_empty m.items.(mb)) ->
          note m p i (got (Some (Queue.take m.items.(mb))));
          next ()
      | Recv mb -> ignore (block mb)
      | Recv_timeout (mb, timeout) ->
          let w = block mb in
          schedule m ~delay:timeout (fun () ->
              if w.state = `Waiting then begin
                w.state <- `Cancelled;
                w.wake None
              end))

let run_until m limit =
  let rec loop () =
    match m.queue with
    | e :: rest when e.time <= limit ->
        m.queue <- rest;
        if e.time > m.now then m.now <- e.time;
        e.run ();
        loop ()
    | _ :: _ -> if limit > m.now then m.now <- limit
    | [] -> ()
  in
  loop ()

(* The log of [script] under the queued semantics, in order. *)
let run script =
  let m =
    {
      now = 0.;
      seq = 0;
      queue = [];
      items = Array.init mailboxes (fun _ -> Queue.create ());
      waiters = Array.init mailboxes (fun _ -> Queue.create ());
      live = 0;
      log = [];
    }
  in
  List.iteri
    (fun p steps ->
      m.live <- m.live + 1;
      schedule m ~delay:0. (fun () -> proceed m p 0 steps))
    script.procs;
  List.iteri
    (fun k limit ->
      run_until m limit;
      note m (-1) k (Printf.sprintf "slice, %d live" m.live))
    script.slices;
  run_until m infinity;
  note m (-1) (List.length script.slices) (Printf.sprintf "end, %d live" m.live);
  List.rev m.log
