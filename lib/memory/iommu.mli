(** IOMMU: device DMA address -> system physical, one domain per
    assigned device, with per-region tagging for device data isolation
    (§4.2). *)

type t

val create : unit -> t
val map : t -> dma:int -> spa:int -> perms:Perm.t -> region:int option -> unit
val unmap : t -> dma:int -> unit

(** Raises {!Fault.Iommu_fault} on unmapped or under-privileged DMA. *)
val translate : t -> dma:int -> access:Perm.access -> int

val pfns_of_region : t -> int -> int list

(** Drop every mapping tagged [region]; returns how many (the
    expensive half of a region switch). *)
val unmap_region : t -> int -> int
