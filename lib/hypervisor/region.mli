(** Protected memory regions for device data isolation (§4.2, §5.3):
    non-overlapping per-guest slices of driver-VM system memory and of
    device memory, unreadable by the driver VM (EPT), reachable by the
    device one region at a time (IOMMU + memory-controller bounds). *)

type t
type region

exception Isolation_violation of string

(** [create hyp ~driver_vm ~iommu ~owners ~pool_spns ~dev_mem] builds
    one region per owner guest from the donated [pool_spns] (one list
    per guest) and an even split of [dev_mem = (base_spa, pages)];
    strips driver-VM CPU access to all of it. *)
val create :
  Hyp.t ->
  driver_vm:Vm.t ->
  iommu:Memory.Iommu.t ->
  owners:Vm.t list ->
  pool_spns:int list list ->
  dev_mem:int * int ->
  t

val region_of_guest : t -> int -> int option

(** A region's device-memory slice [(base_spa, pages)]. *)
val dev_slice : t -> int -> int * int

(** Register the callback that programs the device-memory bounds
    registers (the hypervisor owns the MC after setup). *)
val install_dev_bounds_setter : t -> (low:int -> high:int -> unit) -> unit

(** Take/return protected system pages (driver hypercalls).  Freed
    pages are scrubbed. *)
val alloc_protected_page : t -> rid:int -> int

val free_protected_page : t -> rid:int -> spa:int -> unit

(** Driver request to (un)map a region page at a DMA address; only the
    region's own pool pages are accepted, and the mapping is live only
    while the region is active. *)
val request_iommu_map :
  t -> rid:int -> dma:int -> spa:int -> perms:Memory.Perm.t -> unit

val request_iommu_unmap : t -> rid:int -> dma:int -> unit

(** Make the device work on [rid]'s data: remap the IOMMU and clamp
    the device-memory bounds.  Returns IOMMU entries touched (the
    unoptimised switching cost of §5.3). *)
val switch_region : t -> rid:int -> int

(** Hypercalls for the rare legitimate driver accesses to protected
    device memory (§5.3 change iv); bounds-checked per region. *)
val hyp_write_dev_mem : t -> rid:int -> spa:int -> data:bytes -> unit

val hyp_read_dev_mem : t -> rid:int -> spa:int -> len:int -> bytes

(** Strip driver-VM CPU access to one page (single-shot; region
    creation uses a batched reverse index internally). *)
val strip_driver_access : t -> int -> unit
