(** Kernel wait queues.

    Processes sleep on a wait queue until a driver wakes them (new
    input event, ring space, fence completion).  Modelled directly on
    the Linux primitive: [wake_all] wakes every sleeper, [wake_one]
    the head. *)

type t = {
  engine : Sim.Engine.t;
  sleepers : (unit option -> unit) Queue.t;
}

let create engine = { engine; sleepers = Queue.create () }

(** Block until woken.  Returns [true]; the [~timeout] variant returns
    [false] on timeout. *)
let sleep t =
  match Sim.Engine.suspend (fun waker -> Queue.add waker t.sleepers) with
  | Some () -> ()
  | None -> assert false

let rec wake_one t =
  match Queue.take_opt t.sleepers with
  | Some waker -> waker (Some ())
  | None -> ()

and sleep_timeout t ~timeout =
  let cell = ref `Waiting in
  let result =
    Sim.Engine.suspend_timeout t.engine ~timeout (fun waker ->
        Queue.add
          (fun v ->
            match (!cell, v) with
            | `Waiting, Some () ->
                cell := `Done;
                waker (Some ())
            | `Done, Some () ->
                (* Wakeup landed on a sleeper that already timed out:
                   pass it on so a live sleeper is not starved. *)
                wake_one t
            | _ -> ())
          t.sleepers)
  in
  match result with
  | Some () -> true
  | None ->
      if !cell = `Waiting then cell := `Done;
      false

let wake_all t =
  let pending = Queue.copy t.sleepers in
  Queue.clear t.sleepers;
  Queue.iter (fun waker -> waker (Some ())) pending
