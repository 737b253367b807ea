(** Kernel wait queues.

    Processes sleep on a wait queue until a driver wakes them (new
    input event, ring space, fence completion).  A wait queue is a
    mailbox that nothing ever sends to: it is woken only through
    {!Sim.Mailbox.wake_all}, so it buffers no wakeup and, as in Linux,
    a wake with nobody asleep is lost. *)

type t = unit Sim.Mailbox.t

let create = Sim.Mailbox.create
let sleep = Sim.Mailbox.recv
let sleep_timeout t ~timeout = Option.is_some (Sim.Mailbox.recv_timeout t ~timeout)
let wake_all = Sim.Mailbox.wake_all
