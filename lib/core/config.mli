(** Paradice configuration: every tunable of the system and of its
    calibrated performance model (see EXPERIMENTS.md §Calibration). *)

(** The one poll-then-sleep notification design (§5.1).  A signal to
    a receiver inside its poll window is a [handoff_us] pickup; any
    other signal is a doorbell leg of [leg_us], plus [cold_extra_us]
    when the receiver has been idle past [cold_threshold_us].  A
    receiver whose ring runs dry polls for [window_us] (at most
    [budget_us] per wakeup) before sleeping.  Interrupts are window 0;
    {!hybrid} and {!polling} change only these values. *)
type signalling = {
  leg_us : float;
  cold_extra_us : float;
  handoff_us : float;
  window_us : float;
  budget_us : float;
}

type ioctl_id_mode =
  | Analyzer_table (** static entries + JIT slices (§4.1) *)
  | Macro_only (** command-number decoding only; nested ioctls fail *)

type dispatch =
  | Least_loaded (** full ring scan; ties -> lowest index (default) *)
  | Two_choices
      (** power-of-two-choices: probe two deterministic random rings,
          take the lighter — O(1) per op instead of O(channels) *)

type t = {
  signalling : signalling;
      (** initial doorbell parameters; live ones via
          {!Channel.set_signalling} *)
  validate_grants : bool;
  data_isolation : bool;
  ioctl_id_mode : ioctl_id_mode;
  max_queued_ops : int;
  channels_per_guest : int;
  ring_slots : int;
      (** descriptor-ring depth per channel (in-flight RPC bound) *)
  dispatch : dispatch;  (** how the pool routes an op to a ring *)
  rpc_timeout_us : float;
      (** per-attempt RPC deadline; 0 = block forever (default) *)
  rpc_retries : int;  (** resends after a timeout before ETIMEDOUT *)
  heartbeat_interval_us : float;  (** watchdog ping period; 0 = off *)
  heartbeat_miss_limit : int;  (** missed pings before declaring death *)
  poll_forward_backoff_us : float;
      (** frontend sleep between not-ready poll chunks (spin bound) *)
  sanitize_requests : bool;
      (** post-decode request sanitization pass (ablation knob) *)
  ioctl_guards : bool;
      (** analyzer-generated per-ioctl argument sanitizers in front of
          the device handlers (ablation knob) *)
  max_transfer_bytes : int;
      (** largest read/write a guest may request (allocation bound) *)
  poll_timeout_cap_us : float;
      (** forwarded poll timeouts clamped into [0, cap] *)
  max_open_vfds : int;  (** open virtual descriptors per guest link *)
  max_grant_entries : int;
      (** outstanding grant-table entries per guest (quota) *)
  cpu_budget_us : float;
      (** backend CPU budget per guest per window; 0 = unlimited *)
  cpu_budget_window_us : float;  (** budget accounting window *)
  quarantine_threshold : int;
      (** misbehavior score triggering quarantine; 0 = never *)
  driver_reboot_us : float;  (** driver-VM kill -> serving again *)
  injector : Sim.Fault_inject.t option;  (** deterministic fault plan *)
  tracer : Obs.Trace.t;  (** span tracing sink; default {!Obs.Trace.disabled} *)
}

(** Interrupts: 17.3 us legs, 103.2 us cold surcharge, window 0. *)
val default : t

(** Dedicated polling: 0.9 us legs, 60.7 us cold surcharge, window 0. *)
val polling : t

(** Interrupt wake, then a 20 us poll window within a 200 us budget. *)
val hybrid : t

val with_data_isolation : t -> t

(** §8's cross-machine DSM transport (future work), modelled as a
    10GbE RDMA-class interconnect: 65 us legs, 55 us handoffs. *)
val remote_dsm : t

(** {2 Calibrated constants}

    Single-valued model parameters: no configuration varies them. *)

(** Serialise or deserialise one message: 0.1 us. *)
val marshal_us : float

(** A channel idle longer than this is cold: 1000 us. *)
val cold_threshold_us : float

(** One hypervisor API call from the driver VM: 0.9 us. *)
val hypercall_us : float

(** Frontend writes one grant entry: 0.15 us. *)
val grant_declare_us : float

(** Seeds the per-link [Two_choices] probe stream (derived per guest
    VM id: deterministic, per-link independent). *)
val dispatch_seed : int64

(** Backend blocking chunk per forwarded poll RPC: 5000 us. *)
val poll_forward_chunk_us : float

(** Hot upgrade/migration: quiesce drain bound before stragglers are
    parked for replay on the successor: 50 us. *)
val upgrade_drain_us : float

(** Extra latency when the delay fault fires: 50 us. *)
val fault_delay_us : float

(** Interrupt-injection overhead under device assignment: 16 us
    (§6.1.5: 55 us device-assignment mouse latency). *)
val da_irq_extra_us : float

(** USB + input-core path, event -> evdev queue: 38.4 us (§6.1.5:
    39 us native mouse latency). *)
val input_delivery_us : float
