(** Guest page tables: guest virtual -> guest physical, 3 levels
    (PAE-like, 32-bit virtual addresses), one per process. *)

type t

(** [create ~id ()] builds a page table with the given id; the
    hypervisor keys per-address-space state by [(vm id, pt id)], so
    ids need only be unique per VM (the kernel allocates them).
    Without [id], a domain-local counter in a disjoint range serves
    standalone tables (tests, benchmarks). *)
val create : ?id:int -> unit -> t

(** Unique id, used by the hypervisor to key per-address-space state. *)
val id : t -> int

val map : t -> gva:int -> gpa:int -> perms:Perm.t -> unit
val unmap : t -> gva:int -> bool

(** Software walk; raises {!Fault.Page_fault}. *)
val translate : t -> gva:int -> access:Perm.access -> int

(** As {!translate} but also returns the leaf permissions — software
    TLB fills need them to keep permission checks on at hit time. *)
val translate_leaf : t -> gva:int -> access:Perm.access -> int * Perm.t

val translate_opt : t -> gva:int -> access:Perm.access -> int option

(** Mutation counter for software-TLB invalidation
    ({!Radix_table.generation}). *)
val generation : t -> int

(** Pre-create intermediate levels for a range, leaving leaves to the
    hypervisor (§5.2). *)
val prepare_range : t -> gva:int -> len:int -> unit

val leaf_ready : t -> gva:int -> bool
