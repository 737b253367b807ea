(** CVD transport: a shared-memory descriptor ring plus inter-VM
    signalling (§5.1) — one poll-then-sleep machine whose costs and
    poll window are a {!Config.signalling} — with doorbell coalescing,
    per-receiver cold-path accounting, sequence-numbered at-least-once
    retries and signal-collapsing notifications. *)

type t

(** [uid] names this ring's trace counter series
    (["ring<uid>.occupancy"]); the backend derives it from the guest
    VM id and channel index so series names are deterministic per
    machine.  Omitted (tests), a domain-local fallback is used. *)
val create :
  ?uid:int ->
  Sim.Engine.t ->
  config:Config.t ->
  phys:Memory.Phys_mem.t ->
  guest_vm:Hypervisor.Vm.t ->
  driver_vm:Hypervisor.Vm.t ->
  t

(** Ring depth: how many RPCs may be in flight on this channel. *)
val ring_slots : t -> int

(** The live signalling parameters ([Config.signalling] until
    {!set_signalling}). *)
val signalling : t -> Config.signalling

(** Live switch to new signalling parameters.  In-flight legs keep the
    latency they were scheduled with and a backend mid-window finishes
    that window; the new dry-poll budget applies at once, so window 0
    opens no new one. *)
val set_signalling : t -> Config.signalling -> unit

(** Dispatch weight for {!Chan_pool}: outstanding frontend operations,
    heavily penalised while the backend worker is busy in the driver. *)
val load : t -> int

(** Declare the channel dead (driver-VM crash).  [poison] (default
    true) wakes every blocked party so it observes the death; false
    models a silent crash detected only by deadlines/watchdog.
    Idempotent; safe from engine callbacks. *)
val kill : ?poison:bool -> t -> unit

val is_dead : t -> bool

exception Retired
(** Raised out of {!rpc} by a channel taken down by {!retire}: the
    transport was {e replaced} (planned handoff), not lost — the
    caller should replay the exchange on the successor pool. *)

(** Retire the channel (planned driver-VM handoff): poison-kill it,
    but make stragglers inside {!rpc} raise {!Retired} instead of EIO
    so the session survives.  Idempotent. *)
val retire : t -> unit

(** No operation in flight on either side of the ring. *)
val quiescent : t -> bool

(** Frontend: one request/response exchange over a ring slot; blocks
    while all [Config.ring_slots] slots are in flight.  [timeout_us]
    overrides [Config.rpc_timeout_us] (0 = wait forever).  Raises EIO
    when the channel dies, ETIMEDOUT when the deadline expires after
    [Config.rpc_retries] resends (at-least-once: only retry idempotent
    operations under a deadline).  Responses carrying a stale sequence
    number (late answers to timed-out attempts) are discarded. *)
val rpc : ?timeout_us:float -> t -> bytes -> bytes

(** Hostile-frontend injection (adversarial tests): write raw bytes
    into a ring slot and mark it request-ready, bypassing the RPC
    state machine — what a compromised guest kernel with the shared
    region mapped writable can do.  The backend's response to the slot
    is left unread. *)
val inject_raw : t -> slot:int -> bytes -> unit

(** Backend: block until a descriptor is ready and claim it ([None] =
    channel dead, the worker should exit).  One doorbell wakeup drains
    many descriptors: successive calls re-scan the ring head before
    sleeping. *)
val next_request : t -> (int * bytes) option

(** Complete the descriptor claimed from [slot] (dropped on a dead
    channel); the response leg coalesces with any already in flight
    (and is skipped entirely, in favour of a handoff, while a frontend
    waiter is inside its poll window).  A respond on
    a slot that is not in service — double-complete, never claimed, or
    a guest rewriting the state word — is a counted protocol violation
    and raises EIO instead of corrupting ring accounting. *)
val respond : t -> slot:int -> bytes -> unit

(** Backend: asynchronous notification (collapses while pending, like
    SIGIO).  The shared event counter is a u32 and wraps at 2^32.
    Safe from engine callbacks. *)
val notify : t -> unit

(** Frontend: block for a notification; returns the number of
    notifications raised since the last observation (the wrap-safe
    delta of the shared u32 counter), or [None] once the channel is
    dead. *)
val next_notification : t -> int option

(** Test hook: preset the raw u32 notification counter (and the
    frontend's last-observed value) so wrap behaviour at the 2^32
    boundary can be exercised directly. *)
val preset_notify_counter : t -> int -> unit

(** Fault-site keys understood by this module (armed on the
    [Config.injector]); all act at doorbell-leg granularity. *)
val site_drop_req : string

val site_drop_resp : string
val site_corrupt_req : string
val site_delay_req : string

type stats = {
  legs : int;
  cold_legs : int;
  rpcs : int;
  max_in_flight : int;  (** high-water mark of concurrent RPCs *)
  notifications : int;
  timeouts : int;
  retries : int;
  stale_responses : int;  (** late answers to timed-out attempts, discarded *)
  protocol_violations : int;  (** responds on slots not in service *)
  req_poll_pickups : int;  (** request handoffs to a polling backend *)
  resp_poll_deliveries : int;  (** response handoffs to a polling waiter *)
}

val stats : t -> stats
