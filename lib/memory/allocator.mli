(** Page-granular address-space allocator: guest-physical RAM inside a
    VM, or virtual ranges in a process.  [reserve_unused*] answers the
    hypervisor's "find a page the guest OS does not use" (§5.2) and
    keeps it out of normal allocation. *)

type t

val create : base:int -> size:int -> t

(** May raise [Out_of_memory]. *)
val alloc_page : t -> int

(** [n] contiguous pages (bump region; the free list is not
    coalesced). *)
val alloc_range : t -> int -> int

val free_page : t -> int -> unit

(** Claim one page the allocator has never handed out and never will
    while reserved. *)
val reserve_unused : t -> int

(** Contiguous variant (device BAR apertures). *)
val reserve_unused_range : t -> int -> int

val unreserve : t -> int -> unit
