(** Machine assembly: a complete simulated host in the Figure 1(c)
    topology, or the paper's Native / Device-assignment comparison
    configurations.  Workloads only ever see a kernel + device paths,
    so the same code runs unchanged against every mode. *)

type mode = Native | Device_assignment | Paradice

type guest = {
  vm : Hypervisor.Vm.t;
  kernel : Oskit.Kernel.t;
  frontend : Cvd_front.t;
  mutable link : Cvd_back.guest_link;  (** replaced on driver-VM reboot *)
  pci : Virt_pci.t;
}

(** An exported device: the driver's registered device (path, class,
    driver, exclusivity and operation kinds), the guest-side analyzer
    table and the device info replayed into each guest. *)
type export_record = {
  dev : Oskit.Defs.device;
  entries : Analyzer.Extract.t option;
  info : Device_info.t;
}

type gpu_attachment = {
  gpu : Devices.Gpu_hw.t;
  radeon : Devices.Radeon_drv.t;
  gpu_iommu : Memory.Iommu.t;
  mc_spn : int;
  mutable isolation : Hypervisor.Region.t option;
}

type t = {
  mode : mode;
  config : Config.t;
  engine : Sim.Engine.t;
  phys : Memory.Phys_mem.t;
  hyp : Hypervisor.Hyp.t;
  mutable driver_vm : Hypervisor.Vm.t;
  mutable driver_kernel : Oskit.Kernel.t;
  mutable backend : Cvd_back.t;
  driver_mem_mib : int;
  driver_flavor : Oskit.Os_flavor.t;
  mutable driver_generation : int;
  mutable last_killed_at : float;
  policy : Policy.t;
  mutable exports : export_record list;
  mutable guests : guest list;
  mutable replicas : Cvd_back.t list;
  mutable gpu : gpu_attachment option;
  mutable mouse : Devices.Evdev.t option;
  mutable netmap : Devices.Netmap_drv.t option;
}

val create :
  ?mode:mode ->
  ?config:Config.t ->
  ?driver_mem_mib:int ->
  ?flavor:Oskit.Os_flavor.t ->
  unit ->
  t

val engine : t -> Sim.Engine.t
val hyp : t -> Hypervisor.Hyp.t
val driver_kernel : t -> Oskit.Kernel.t
val policy : t -> Policy.t
val config : t -> Config.t

(** Guests in the order they were added. *)
val guests : t -> guest list

(** Add a guest VM (Paradice mode only): connects it to the backend,
    builds its frontend, and replays every export into its /dev. *)
val add_guest :
  t -> ?name:string -> ?mem_mib:int -> ?flavor:Oskit.Os_flavor.t -> unit -> guest

(** The kernel applications run against in this mode. *)
val app_kernel : t -> Oskit.Kernel.t

(** Spawn an application task, registered with the hypervisor so
    forwarded operations can name its address space. *)
val spawn_app : t -> Oskit.Kernel.t -> name:string -> Oskit.Defs.task

(** {1 Driver-VM crash recovery (§7.2)}

    [create] also arms the ["cvd.crash"] fault site on
    [Config.injector], so a backend worker hitting it performs a real
    mid-RPC kill. *)

(** Kill the current driver VM (hypervisor rejects it, backend stops
    serving).  [poison] (default true) wakes blocked parties; false is
    a silent death.  Idempotent; safe from engine callbacks. *)
val kill_driver_vm : ?poison:bool -> t -> unit

(** Reboot a killed driver VM: boot delay, fresh VM/kernel/backend,
    devices re-probed, every guest reconnected and its frontend
    reattached.  Previously-open guest files stay stale; new opens
    succeed.  Process context. *)
val reboot_driver_vm : t -> unit

val last_killed_at : t -> float
(** Sim time of the last kill; nan if never killed. *)

val driver_generation : t -> int
(** Number of reboots so far. *)

(** {1 Live driver-VM operations (hot upgrade, session migration)}

    Planned handoffs built on the session checkpoint/restore core:
    quiesce each guest link (frontend parks new operations, rings
    drain, heartbeat suspended), checkpoint backend-side session state
    through the versioned {!Snapshot} wire format, swap or copy, then
    restore through the same sanitization as live requests and resume.
    Guests' open files keep working — no ENODEV on the happy path. *)

(** Abort-style fault sites checked during the handoffs (see
    {!Sim.Fault_inject.check}). *)
val site_upgrade_crash_checkpoint : string

val site_upgrade_crash_restore : string
val site_migrate_crash_checkpoint : string
val site_migrate_crash_transfer : string
val site_migrate_crash_restore : string

type upgrade_stats = {
  up_generation : int;
  up_boot_us : float;
      (** replacement boot time, overlapped with live service — outside
          the blackout *)
  up_blackout_us : float;  (** guest-visible stall: quiesce → resume *)
  up_quiesce_us : float;
  up_checkpoint_us : float;
  up_swap_us : float;
  up_restore_us : float;
  up_resume_us : float;
  up_checkpoint_bytes : int;  (** encoded snapshot bytes, all guests *)
  up_parked_ops : int;
      (** operations that hit a retiring channel and replayed on the
          successor *)
  up_files_restored : int;
  up_files_dropped : int;  (** snapshot entries refused by re-validation *)
  up_vmas_restored : int;
  up_fasync_rearmed : int;
  up_mappings_kept : int;
  up_mappings_dropped : int;
  up_grants_revoked : int;
}

type upgrade_outcome =
  | Upgraded of upgrade_stats
  | Upgrade_degraded_reboot
      (** the incumbent was already dead (or died while the replacement
          booted): fell back to {!reboot_driver_vm} crash recovery *)
  | Upgrade_aborted of string
      (** crash (fault-site key) before the point of no return: the
          replacement was discarded and the incumbent kept serving —
          guests saw only latency *)
  | Upgrade_failed_dead of string
      (** crash after the incumbent was gone: guests fault exactly as
          on a driver-VM crash; {!reboot_driver_vm} recovers *)

(** Hot-upgrade the driver VM: boot the replacement while the incumbent
    serves, then quiesce, checkpoint, swap, restore, resume.  Process
    context. *)
val upgrade_driver_vm : t -> upgrade_outcome

(** Backends of the live replicas, in spawn order. *)
val replicas : t -> Cvd_back.t list

(** Boot a second live driver VM serving the same exports — a
    migration target — and return its backend.  Process context. *)
val spawn_driver_replica : ?name:string -> t -> Cvd_back.t

type migrate_outcome =
  | Migrated of Cvd_back.restore_stats
  | Migrate_aborted of string
      (** crash before cutover: the session is untouched on the
          source *)
  | Migrate_failed_back of string * Cvd_back.restore_stats
      (** the destination crashed mid-restore; the same snapshot was
          restored back onto the source — the session lands whole on
          exactly one side *)

(** Move one guest's session between live driver VMs using the same
    checkpoint/restore core as the hot upgrade.  [dst] is typically a
    replica's backend (or [t.backend] to migrate home).  Process
    context. *)
val migrate_guest : t -> guest -> dst:Cvd_back.t -> migrate_outcome

(** {1 Device attachment}

    Each attaches the hardware model and its driver to the driver VM,
    registers the device file, and exports it (virtual device file +
    device info module + virtual PCI function) to every guest. *)

(** A 64 MiB-VRAM Radeon. *)
val attach_gpu : t -> gpu_attachment

(** Device data isolation for the GPU (§4.2, §5.3): donate per-guest
    pools (8192 pages each), create protected regions, take the MC
    MMIO page from the driver VM, switch the driver to isolation mode.
    Call after all guests exist. *)
val enable_gpu_data_isolation : t -> Hypervisor.Region.t

val attach_mouse : t -> Devices.Evdev.t
val attach_keyboard : t -> Devices.Evdev.t
val attach_camera : t -> ?fps:float -> unit -> Devices.V4l2_drv.t
val attach_audio : t -> Devices.Pcm_drv.t
val attach_netmap : t -> Devices.Netmap_drv.t

(** The null device behind the §6.1.1 no-op microbenchmark. *)
val null_ioctl : int

val attach_null : t -> Oskit.Defs.device
