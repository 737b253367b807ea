(** DRM/Radeon-like GPU driver over {!Gpu_hw}: GEM buffer objects,
    nested-copy command submission, fences, bo mmap, and the §5.3
    device-data-isolation mode (the paper's ~400 driver LoC), plus the
    §8 extensions (watchdog recovery, command-streamer protection) and
    §5.3's software VSync. *)

type t

val create :
  kernel:Oskit.Kernel.t ->
  gpu:Gpu_hw.t ->
  iommu:Memory.Iommu.t ->
  bar_gpa:int ->
  mc_mmio_gpa:int ->
  t

val gpu : t -> Gpu_hw.t
val completed_fence : t -> int
val stats_region_switches : t -> int
val stats_recoveries : t -> int

(** §8 extensions (both default off). *)
val set_command_streamer_protection : t -> bool -> unit

val set_watchdog_timeout : t -> float -> unit

(** Fair per-guest GPU scheduling (§8's TimeGraph suggestion;
    default: the prototype's FIFO). *)
val set_fair_scheduling : t -> bool -> unit

(** Non-isolated initialisation: program the MC wide open, set up the
    system-memory interrupt-reason buffer. *)
val init_native : t -> unit

(** Data-isolation initialisation (§5.3's four change sets), run in
    the trusted boot window.  [pool_pages] are the donated pool pages
    as [(driver_gpa, spa)]. *)
val init_isolated :
  t -> mgr:Hypervisor.Region.t -> pool_pages:(int * int) list -> unit

(** Register as /dev/dri/card0 in the driver kernel. *)
val register : t -> Oskit.Defs.device
