(** A physically-backed region shared between VMs (the CVD transport
    medium, §5.1): one or more contiguous frames, mapped contiguously
    into each VM.  Each VM accesses it through its own EPT mapping, so
    permissions apply for real. *)

type t

(** [read_into ~offset ~len dst] copies [len] bytes of the region into
    the start of [dst]: no accessor allocates a copy of its own. *)
type view = {
  read_into : offset:int -> len:int -> bytes -> unit;
  write : offset:int -> bytes -> unit;
  read_u32 : offset:int -> int;
  write_u32 : offset:int -> int -> unit;
  read_u64 : offset:int -> int64;
  write_u64 : offset:int -> int64 -> unit;
}

(** [allocate ?pages phys] backs the region with [pages] (default 1)
    contiguous frames. *)
val allocate : ?pages:int -> Memory.Phys_mem.t -> t

(** Map into [vm] at a fresh contiguous guest-physical range
    (base returned). *)
val map_into : t -> Vm.t -> perms:Memory.Perm.t -> int

(** EPT-checked accessors for a VM that has the region mapped.  The
    view holds the RAM frame each in-page access was translated to and
    reuses it, counting the TLB hit a lookup would have made, while the
    VM's EPT generation and TLB epoch are unchanged; values, faults and
    TLB counts equal a per-access translation's. *)
val view_of : t -> Vm.t -> view

(** The hypervisor's own view bypasses EPTs. *)
val hypervisor_view : t -> view
