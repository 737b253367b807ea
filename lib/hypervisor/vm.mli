(** A virtual machine as the hypervisor sees it: an EPT, a software
    TLB, a guest-physical allocator and an identity.  CPU memory
    accesses from inside the VM go through the EPT with permission
    checks, so protected-region reads fault exactly as §4.2 requires.
    Translations are cached in the per-VM software TLB; hits re-check
    the cached leaf permissions and the source tables' generation
    counters, so stale entries never outlive revoked mappings. *)

type kind = Guest | Driver

type t = {
  id : int;
  name : string;
  kind : kind;
  phys : Memory.Phys_mem.t;
  ept : Memory.Ept.t;
  tlb : Memory.Tlb.t;
  gpa_alloc : Memory.Allocator.t;
  mutable alive : bool;  (** cleared when the VM crashes or is killed *)
}

val id : t -> int
val name : t -> string
val kind : t -> kind
val ept : t -> Memory.Ept.t
val phys : t -> Memory.Phys_mem.t
val tlb : t -> Memory.Tlb.t
val alive : t -> bool

(** Drop every cached translation (VM teardown, explicit shootdown). *)
val flush_tlb : t -> unit

(** CPU access to guest-physical memory (EPT-checked). *)
val read_gpa : t -> gpa:int -> len:int -> bytes

val read_gpa_into : t -> gpa:int -> dst:bytes -> dst_off:int -> len:int -> unit

val write_gpa : t -> gpa:int -> bytes -> unit

(** The RAM frame backing [gpa] for [access], found by the same
    translation an access at [gpa] makes (TLB lookup or walk, counted,
    faulting at [gpa]), or {!Memory.Phys_mem.no_frame} for an MMIO
    page.  For {!Shared_page} views only: a holder must revalidate it
    against {!Memory.Ept.generation} and {!Memory.Tlb.epoch} before
    each use. *)
val frame_of_gpa : t -> gpa:int -> access:Memory.Perm.access -> bytes

(** Two-level access through a process page table then the EPT — the
    path every simulated application load/store takes. *)
val read_gva : t -> pt:Memory.Guest_pt.t -> gva:int -> len:int -> bytes

val write_gva : t -> pt:Memory.Guest_pt.t -> gva:int -> bytes -> unit

val read_gva_into :
  t -> pt:Memory.Guest_pt.t -> gva:int -> dst:bytes -> dst_off:int -> len:int -> unit

val write_gva_from :
  t -> pt:Memory.Guest_pt.t -> gva:int -> src:bytes -> src_off:int -> len:int -> unit

val read_gpa_u32 : t -> gpa:int -> int
val write_gpa_u32 : t -> gpa:int -> int -> unit
val read_gpa_u64 : t -> gpa:int -> int64
val write_gpa_u64 : t -> gpa:int -> int64 -> unit
val read_gva_u32 : t -> pt:Memory.Guest_pt.t -> gva:int -> int
val write_gva_u32 : t -> pt:Memory.Guest_pt.t -> gva:int -> int -> unit
val read_gva_u64 : t -> pt:Memory.Guest_pt.t -> gva:int -> int64
val write_gva_u64 : t -> pt:Memory.Guest_pt.t -> gva:int -> int64 -> unit

(** Guest-"RAM" page management (EPT-backed at VM creation). *)
val alloc_gpa_page : t -> int

val free_gpa_page : t -> int -> unit
