(** Unbounded FIFO message channel between simulated processes, and
    the simulator's one queue of sleeping processes.

    [send] never blocks; [recv] blocks until a message is available.
    Blocked receivers are woken in FIFO order. *)

type 'a t

val create : Engine.t -> 'a t

(** Deliver a message: to the longest-waiting receiver if any, else
    into the buffer.  Callable from engine callbacks. *)
val send : 'a t -> 'a -> unit

(** Wake every receiver blocked now, in FIFO order, and buffer
    nothing: with nobody blocked the wake is lost, as a Linux
    [wake_up_all] on an empty wait queue is.  Callable from engine
    callbacks. *)
val wake_all : unit t -> unit

(** Take the next message, blocking the calling process if none is
    buffered. *)
val recv : 'a t -> 'a

(** Like {!recv} but gives up after [timeout] microseconds.  Whichever
    of a send and the timeout comes first wins; a timed-out receiver
    never takes a later message, so none is lost or re-dispatched. *)
val recv_timeout : 'a t -> timeout:float -> 'a option

(** Blocked receivers currently eligible for a send. *)
val waiting : 'a t -> int

(** Drop every buffered message; blocked receivers stay blocked. *)
val clear : 'a t -> unit
