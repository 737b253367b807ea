(** Counting semaphore for simulated processes.

    Used wherever the modelled system serialises access to a resource:
    one GPU engine shared by several guests, a driver's single-open
    camera, a bounded wait queue. *)

type t = {
  mutable available : int;
  capacity : int;
  waiters : (unit option -> unit) Queue.t;
}

let create ?(capacity = max_int) initial =
  if initial < 0 then invalid_arg "Semaphore.create: negative count";
  { available = initial; capacity; waiters = Queue.create () }

let acquire t =
  if t.available > 0 then t.available <- t.available - 1
  else
    match Engine.suspend (fun waker -> Queue.add waker t.waiters) with
    | Some () -> ()
    | None -> assert false

let release t =
  match Queue.take_opt t.waiters with
  | Some waker -> waker (Some ())
  | None ->
      if t.available >= t.capacity then
        invalid_arg "Semaphore.release: over capacity";
      t.available <- t.available + 1

(** [with_resource t f] brackets [f] between acquire/release, releasing
    on exception so a failing process cannot wedge the resource. *)
let with_resource t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception exn ->
      release t;
      raise exn
