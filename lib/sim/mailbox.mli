(** Unbounded FIFO message channel between simulated processes.

    [send] never blocks; [recv] blocks until a message is available.
    Blocked receivers are woken in FIFO order. *)

type 'a t

val create : Engine.t -> 'a t
val is_empty : 'a t -> bool

(** Deliver a message: to the longest-waiting receiver if any, else
    into the buffer.  Callable from engine callbacks. *)
val send : 'a t -> 'a -> unit

(** Take the next message, blocking the calling process if none is
    buffered. *)
val recv : 'a t -> 'a

(** Like {!recv} but gives up after [timeout] microseconds.  A
    timed-out waiter is removed from the wait queue, so later sends go
    straight to live receivers (or the buffer) and no message is ever
    lost or re-dispatched. *)
val recv_timeout : 'a t -> timeout:float -> 'a option

(** Blocked receivers currently eligible for a send. *)
val waiting : 'a t -> int
