(** GPU memory controller: the two bounds registers confining the GPU
    cores' device-memory accesses, on their own MMIO page so the
    hypervisor can unmap exactly that page from the driver VM
    (§4.2, §5.3). *)

type t

val reg_low_bound : int
val reg_high_bound : int
val create : vram_base:int -> vram_bytes:int -> t
val blocked_count : t -> int
val set_bounds : t -> low:int -> high:int -> unit

(** Raises {!Memory.Fault.Bus_error} outside the bounds. *)
val check : t -> spa:int -> len:int -> access:Memory.Perm.access -> unit

(** Install the registers as an MMIO page; returns the spn. *)
val install_mmio : t -> Memory.Phys_mem.t -> int
