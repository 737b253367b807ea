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

(** The guest-physical address space, passed as [~pt] to the accessors
    below: an access through it is the VM's own CPU access, EPT-checked
    only.  Any other [pt] is a process page table, walked before the
    EPT — the path every simulated application load/store takes. *)
val no_pt : Memory.Guest_pt.t

(** CPU access to [addr] in the address space [pt]: translated per page
    through the VM's software TLB, faulting as the walks do
    ({!Memory.Fault.Page_fault}, {!Memory.Fault.Ept_violation}).  The
    [_into]/[_from] copies and the scalars allocate nothing. *)
val read : t -> pt:Memory.Guest_pt.t -> addr:int -> len:int -> bytes

val read_into :
  t -> pt:Memory.Guest_pt.t -> addr:int -> dst:bytes -> dst_off:int -> len:int -> unit

val write : t -> pt:Memory.Guest_pt.t -> addr:int -> bytes -> unit

val write_from :
  t -> pt:Memory.Guest_pt.t -> addr:int -> src:bytes -> src_off:int -> len:int -> unit

val read_u32 : t -> pt:Memory.Guest_pt.t -> addr:int -> int
val write_u32 : t -> pt:Memory.Guest_pt.t -> addr:int -> int -> unit
val read_u64 : t -> pt:Memory.Guest_pt.t -> addr:int -> int64
val write_u64 : t -> pt:Memory.Guest_pt.t -> addr:int -> int64 -> unit

(** The RAM frame backing [gpa] for [access], found by the same
    translation an access at [gpa] makes (TLB lookup or walk, counted,
    faulting at [gpa]), or {!Memory.Phys_mem.no_frame} for an MMIO
    page.  For {!Shared_page} views only: a holder must revalidate it
    against {!Memory.Ept.generation} and {!Memory.Tlb.epoch} before
    each use. *)
val frame_of_gpa : t -> gpa:int -> access:Memory.Perm.access -> bytes

(** Guest-"RAM" page management (EPT-backed at VM creation). *)
val alloc_gpa_page : t -> int

val free_gpa_page : t -> int -> unit
