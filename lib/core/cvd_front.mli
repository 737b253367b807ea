(** The CVD frontend (§3.1, §5.1): creates virtual device files in the
    guest whose handlers declare the operation's legitimate memory
    operations in the grant table (§4.1) and forward it over the
    channel pool. *)

type t

type session = Healthy | Faulted

type fault_stats = {
  grants_revoked : int;
  mappings_torn : int;
  heartbeat_misses : int;
  last_faulted_at : float;  (** sim time of the last fault; nan if none *)
  last_teardown_us : float;  (** revoke+teardown duration; nan if none *)
}

(** Also spawns the notification dispatcher, and — when
    [Config.heartbeat_interval_us > 0] — the watchdog that pings the
    backend and faults the session after
    [Config.heartbeat_miss_limit] consecutive misses. *)
val create :
  kernel:Oskit.Kernel.t ->
  hyp:Hypervisor.Hyp.t ->
  guest_vm:Hypervisor.Vm.t ->
  pool:Chan_pool.t ->
  config:Config.t ->
  t

(** (operations forwarded, JIT slice evaluations, transport stats) *)
val stats : t -> int * int * Chan_pool.stats

val session : t -> session
val fault_stats : t -> fault_stats

(** Declare the driver VM dead: stale all open virtual files (their
    operations fail ENODEV), revoke every grant, tear down every
    hypervisor-installed mapping into this guest.  Idempotent; must run
    in process context (it charges teardown hypercalls). *)
val fault_session : t -> reason:string -> unit

(** Re-establish a faulted session over a fresh pool (driver-VM
    reboot, §7.2).  Stale files must be reopened; new opens work
    immediately. *)
val reattach : t -> pool:Chan_pool.t -> unit

(** {1 Planned handoff (hot upgrade / session migration)} *)

(** Stop issuing onto the transport: new operations park until
    {!resume} (or {!fault_session}).  Invisible to callers except as
    latency.  The watchdog skips its pings meanwhile, so however long
    the handoff takes no misses accrue against a healthy driver VM. *)
val quiesce : t -> unit

val is_paused : t -> bool

(** Wake parked operations.  [pool] installs the successor transport
    (and its notification dispatcher); omitting it resumes on the
    current pool — the soft-rollback of an aborted handoff. *)
val resume : ?pool:Chan_pool.t -> t -> unit

(** Operations that hit a retiring channel and were replayed on the
    successor pool. *)
val ops_parked : t -> int

(** Where a guest file stands with respect to its backend session. *)
type file_status =
  | Live
  | Stale_retryable of string
      (** the session died under it but is re-established: operations
          fail ENODEV, a fresh [open] succeeds — close and reopen *)
  | Stale_dead of string  (** stale and the session is still down *)
  | Unknown

val file_status : t -> Oskit.Defs.file -> file_status

(** Stop the heartbeat watchdog (lets [Engine.run] drain). *)
val stop_watchdog : t -> unit

(** Forward an io_uring-style multi-op batch ({!Proto.Rbatch}): every
    request rides one ring slot / one doorbell and executes
    sequentially on the backend.  Returns one response per sub-op in
    submission order; a failing sub-op carries its errno in its reply
    slot without aborting the batch.  [ops] declares the grants the
    sub-ops may touch (one grant_ref for the whole batch).  Raises as
    {!Oskit.Errno.Unix_error} when the batch itself is rejected
    (malformed, sanitization, transport death). *)
val forward_batch :
  t ->
  Oskit.Defs.task ->
  ops:Hypervisor.Grant_table.op list ->
  Proto.request list ->
  Proto.response list

(** Convenience over {!forward_batch}: issue [cmds] — pointer-free
    [(cmd, arg)] ioctls such as netmap txsync or the no-op probe — on
    one open guest file as a single multi-op descriptor.  Returns the
    per-sub-op int results in submission order; the first failing
    sub-op raises its errno, and a result outside [0, 2^31 - 1] (the
    [int] ioctl(2) returns) raises EIO. *)
val batch_ioctl :
  t -> Oskit.Defs.task -> Oskit.Defs.file -> (int * int64) list -> int list

(** Create the virtual device file for a driver's registered device:
    same path, class and exclusivity, forwarding the operation kinds
    its driver implements, each of which the guest kernel's flavor
    must support.  [entries] is the analyzer's table for ioctl-heavy
    classes. *)
val export :
  t -> ?entries:Analyzer.Extract.t -> Oskit.Defs.device -> Oskit.Defs.device
