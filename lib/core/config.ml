(** Paradice configuration: every tunable of the system and of its
    performance model, with the paper's defaults.

    Latency constants are calibrated against the paper's direct
    measurements (§6.1.1, §6.1.5):
    - a no-op file operation costs ~35 us with interrupts, "most of
      which comes from two inter-VM interrupts", and ~2 us with
      polling;
    - cold-path forwarding (an idle channel, as in the mouse-latency
      experiment) costs substantially more per leg than the hot
      pipelined path, which is why §6.1.5's mouse latency (296 us
      interrupts / 179 us polling) is far above 2 x the no-op cost.
      The cold surcharges below are calibrated to those two numbers. *)

(* The CVD's one notification design (§5.1): a receiver polls the
   shared page for a while, then sleeps behind a doorbell.  Interrupts,
   dedicated polling and the NAPI-style hybrid are three settings of
   these five values, not three code paths. *)
type signalling = {
  leg_us : float; (* one doorbell leg to a sleeping receiver, hot path *)
  cold_extra_us : float; (* per-leg surcharge when that receiver is cold *)
  handoff_us : float; (* one shared-page pickup by a receiver still
                          inside its poll window *)
  window_us : float; (* how long a receiver polls a dry ring before
                         sleeping; 0 = sleep at once *)
  budget_us : float; (* cap on cumulative dry polling per wakeup
                         episode, so a trickle load cannot pin a CPU *)
}

type ioctl_id_mode =
  | Analyzer_table (* static entries + JIT slices from the analyzer (§4.1) *)
  | Macro_only (* command-number decoding only: breaks nested-copy ioctls *)

type t = {
  (* -- transport -- *)
  signalling : signalling; (* doorbell costs and poll window *)
  (* -- isolation -- *)
  validate_grants : bool; (* fault-isolation runtime checks (§4.1) *)
  data_isolation : bool; (* protected memory regions (§4.2) *)
  (* -- CVD policy -- *)
  ioctl_id_mode : ioctl_id_mode;
  max_queued_ops : int; (* per-guest wait-queue cap, DoS protection (§5.1) *)
  channels_per_guest : int; (* parallel backend workers per guest, so a
                                blocking read does not stall other files *)
  (* -- fault containment & recovery (§4.1, §7.2) -- *)
  rpc_timeout_us : float; (* per-attempt RPC deadline; 0 = block forever
                              (blocking reads on quiet devices are
                              legitimate, so deadlines are opt-in) *)
  rpc_retries : int; (* resend attempts after a timed-out RPC before
                         surfacing ETIMEDOUT (at-least-once semantics) *)
  heartbeat_interval_us : float; (* frontend watchdog ping period; 0 = off *)
  heartbeat_miss_limit : int; (* consecutive missed pings before the
                                  driver VM is declared dead *)
  poll_forward_backoff_us : float; (* frontend sleep between not-ready poll
                                       chunks: bounds the RPC rate of a
                                       never-ready device so one guest poll
                                       cannot spin the ring *)
  (* -- hostile-guest containment (§4, §7.1: the backend does not
        trust the frontend) -- *)
  sanitize_requests : bool; (* run the post-decode sanitization pass on
                                every forwarded operation (ablation knob;
                                the paper's backend always validates) *)
  ioctl_guards : bool; (* run the analyzer-generated per-ioctl argument
                           sanitizers in front of the device handlers
                           (ablation knob for the §5.1-facts → runtime
                           checking loop) *)
  max_transfer_bytes : int; (* largest read/write a guest may request;
                                bounds backend allocation per operation *)
  poll_timeout_cap_us : float; (* forwarded poll timeouts are clamped
                                   into [0, cap]; non-finite or negative
                                   encodings are rejected outright *)
  max_open_vfds : int; (* open virtual descriptors per guest link *)
  max_grant_entries : int; (* outstanding grant-table entries per guest
                               (quota below the physical table capacity) *)
  cpu_budget_us : float; (* backend CPU time one guest may consume per
                             accounting window; 0 = unlimited.  Charged
                             through Kernel.charge, so a guest spinning
                             expensive ioctls is throttled instead of
                             starving siblings' ring service *)
  cpu_budget_window_us : float; (* budget accounting window *)
  quarantine_threshold : int; (* misbehavior score at which the backend
                                  quarantines a guest (revokes grants,
                                  tears down its mappings, detaches its
                                  link); 0 = never quarantine *)
  driver_reboot_us : float; (* driver-VM kill -> serving again (§7.2's
                                "rebooted in seconds") *)
  injector : Sim.Fault_inject.t option; (* deterministic fault plan *)
  tracer : Obs.Trace.t; (* span tracing sink; the disabled sink is a
                            single boolean check per instrumentation
                            point and records nothing *)
}

(* The fault plan's two probes; with no plan nothing ever fires. *)
let fires t key =
  match t.injector with
  | None -> false
  | Some inj -> Sim.Fault_inject.fires inj ~key

let check t key =
  match t.injector with
  | None -> ()
  | Some inj -> Sim.Fault_inject.check inj ~key

(* Calibrated constants: one value each, read directly by the model. *)

(* -- transport -- *)
let marshal_us = 0.1 (* serialise/deserialise one message *)
let cold_threshold_us = 1_000. (* channel idle longer than this = cold *)

(* -- isolation -- *)
let hypercall_us = 0.9 (* one hypervisor API call from the driver VM *)
let grant_declare_us = 0.15 (* frontend writes one grant entry *)

(* -- CVD policy -- *)
let ring_slots = 8
(* descriptor-ring depth per channel: how many RPCs a guest may have in
   flight on one channel before publishers block (doorbells coalesce
   across all descriptors queued since the last one).  At most 128: the
   control page holds one state word per slot below the notify counter
   at offset 512. *)

let poll_forward_chunk_us = 5_000.
(* bounded chunk a forwarded poll blocks in the backend before
   re-asking *)

(* -- fault containment & recovery -- *)
let upgrade_drain_us = 50.
(* hot upgrade/migration: how long quiesce waits for in-flight
   operations to drain before parking the stragglers for replay on the
   successor (bounds the blackout window) *)

let fault_delay_us = 50. (* extra latency when the delay fault fires *)

(* -- guest/OS costs -- *)
let da_irq_extra_us = 16.
(* interrupt-injection overhead under device assignment (native = 0) *)

(* -- workload-visible device costs -- *)
let input_delivery_us = 38.4 (* USB + input-core path, event -> evdev queue *)

(* Interrupts: every leg is an inter-VM interrupt and a dry ring puts
   the receiver straight back to sleep. *)
let interrupts =
  {
    leg_us = 17.3;
    cold_extra_us = 103.2;
    handoff_us = 0.9;
    window_us = 0.;
    budget_us = 0.;
  }

let default =
  {
    signalling = interrupts;
    validate_grants = true;
    data_isolation = false;
    ioctl_id_mode = Analyzer_table;
    max_queued_ops = 100;
    channels_per_guest = 4;
    rpc_timeout_us = 0.;
    rpc_retries = 2;
    heartbeat_interval_us = 0.;
    heartbeat_miss_limit = 3;
    poll_forward_backoff_us = 50.;
    sanitize_requests = true;
    ioctl_guards = true;
    max_transfer_bytes = 4 * 1024 * 1024;
    poll_timeout_cap_us = 60_000_000.;
    max_open_vfds = 128;
    max_grant_entries = 170; (* = Grant_table.capacity: quota off by default *)
    cpu_budget_us = 0.;
    cpu_budget_window_us = 10_000.;
    quarantine_threshold = 50;
    driver_reboot_us = 1_000_000.;
    injector = None;
    tracer = Obs.Trace.disabled;
  }

(** Dedicated polling: both sides spin on the ring head, so a leg costs
    a shared-page handoff.  The window stays 0 rather than unbounded:
    an unbounded window would treat every leg as a handoff and drop the
    cold surcharge that §6.1.5's 179 us polling mouse latency is
    calibrated on. *)
let polling =
  {
    default with
    signalling = { interrupts with leg_us = 0.9; cold_extra_us = 60.7 };
  }

(** Hybrid notification: interrupts to wake an idle side, then a 20 us
    poll window (within a 200 us budget per wakeup) while the ring
    stays busy.  Steady-state cost approaches the polling figure
    without a dedicated polling CPU per channel. *)
let hybrid =
  {
    default with
    signalling = { interrupts with window_us = 20.; budget_us = 200. };
  }

let with_data_isolation t = { t with data_isolation = true }

(** The DSM-based cross-machine configuration sketched in §8's future
    work: guest VM and driver VM on separate physical hosts, the
    shared pages kept coherent over the network.  Each signalling leg
    then costs a network one-way plus the DSM protocol; this preset
    models a 10GbE RDMA-class interconnect. *)
let remote_dsm =
  {
    default with
    signalling =
      {
        interrupts with
        leg_us = 65.0 (* one-way network + DSM coherence *);
        handoff_us = 55.0 (* polling cannot beat the wire *);
      };
  }
