(** Memory faults, raised by the simulated hardware and caught by the
    layer that would handle them on a real machine. *)

type space = Guest_virtual | Guest_physical | System_physical | Dma

type info = { space : space; addr : int; access : Perm.access; reason : string }

exception Page_fault of info
(** Guest page-table walk failed (missing or under-privileged). *)

exception Ept_violation of info
(** EPT walk failed — including protected-region pages whose
    permissions the hypervisor stripped (§4.2). *)

exception Iommu_fault of info
(** Device DMA through an unmapped or under-privileged address. *)

exception Bus_error of info
(** Access outside populated memory, or blocked by device bounds. *)

val page_fault : space:space -> addr:int -> access:Perm.access -> string -> 'a
val ept_violation : addr:int -> access:Perm.access -> string -> 'a
val iommu_fault : addr:int -> access:Perm.access -> string -> 'a
val bus_error : addr:int -> access:Perm.access -> string -> 'a
val pp_info : Format.formatter -> info -> unit
