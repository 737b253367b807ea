(** System physical memory: lazily-backed 4 KiB RAM frames plus MMIO
    pages routed to device register handlers, in a frame table indexed
    by spn.  Spns are bump-allocated from 1 and never reused; every
    accessor raises {!Fault.Bus_error} on an spn never allocated. *)

type mmio_handler = {
  mmio_read : offset:int -> len:int -> bytes;
  mmio_write : offset:int -> bytes -> unit;
}

type t

val create : unit -> t

(** Allocate [n] fresh contiguous RAM frames; returns the base spn.
    Backing bytes materialise on a frame's first write; until then its
    reads are served from one shared zero page. *)
val alloc_frames : t -> int -> int

val alloc_frame : t -> int

(** Install a device register page; returns its spn. *)
val alloc_mmio : t -> mmio_handler -> int

val is_mmio : t -> int -> bool

(** Byte access at system physical addresses; may cross frames.
    Raises {!Fault.Bus_error} on unpopulated frames. *)
val read : t -> spa:int -> len:int -> bytes

val write : t -> spa:int -> bytes -> unit

(** Zero-copy blits into/from a caller-supplied buffer — the
    data-plane fast path; no intermediate allocation.  Scalar
    accessors below likewise address the backing frame directly. *)
val read_into : t -> spa:int -> dst:bytes -> dst_off:int -> len:int -> unit

val write_from : t -> spa:int -> src:bytes -> src_off:int -> len:int -> unit
val read_u32 : t -> spa:int -> int
val write_u32 : t -> spa:int -> int -> unit
val read_u64 : t -> spa:int -> int64
val write_u64 : t -> spa:int -> int64 -> unit

(** The empty sentinel {!ram_frame} returns for an MMIO page. *)
val no_frame : bytes

(** The bytes of RAM frame [spn] for [access], or {!no_frame} for an
    MMIO page; raises {!Fault.Bus_error} on an unpopulated one.  A
    write materialises the frame; a read of a frame never written
    returns the shared zero page, which must be neither written nor
    kept ({!is_zero_page}).  Allocates nothing once materialised, and
    a materialised frame's bytes are never replaced, so a holder may
    keep them. *)
val ram_frame : t -> spn:int -> access:Perm.access -> bytes

(** Is [frame] the shared zero page {!ram_frame} serves reads of a
    never-written frame from?  Such a frame gets bytes of its own on
    its first write, so a holder of the zero page would miss it. *)
val is_zero_page : bytes -> bool

(** Scrub a frame to zero (protected-region recycling, §5.3). *)
val zero_frame : t -> int -> unit
