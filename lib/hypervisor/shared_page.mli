(** A physically-backed region shared between VMs (the CVD transport
    medium, §5.1): one or more contiguous frames, mapped contiguously
    into each VM.  Each VM accesses it through its own EPT mapping, so
    permissions apply for real. *)

type t

(** [read_into ~offset ~len dst] copies [len] bytes of the region into
    the start of [dst]: no accessor allocates a copy of its own.  A hot
    path reads or writes a whole record in one access and decodes it
    from its own copy; the u32 scalars serve single words. *)
type view = {
  read_into : offset:int -> len:int -> bytes -> unit;
  write : offset:int -> bytes -> unit;
  read_u32 : offset:int -> int;
  write_u32 : offset:int -> int -> unit;
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
    TLB counts equal a per-access translation's.  It never holds the
    shared zero page ({!Memory.Phys_mem.is_zero_page}), so a write by
    any VM to a never-written frame shows in its next read. *)
val view_of : t -> Vm.t -> view

(** The hypervisor's own view bypasses EPTs. *)
val hypervisor_view : t -> view
