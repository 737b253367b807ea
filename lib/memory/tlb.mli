(** Software TLB: per-address-space translation cache with
    generation-counter invalidation (see the .ml header for the
    staleness argument).  Caches gva→spa for the combined
    guest-PT+EPT walk and gpa→spa for EPT-only walks; a hit re-checks
    the cached leaf permissions, so validation stays on — only the
    walk cost is removed.  A hit allocates nothing. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable walks : int;  (** full software walks performed (slow path) *)
}

val create_stats : unit -> stats

(** An entry carries its own [(space, vfn)] key. *)
type entry = {
  space : int;
  vfn : int;
  spn : int;
  pt_perms : Perm.t;  (** guest-PT leaf perms; [Perm.rwx] for gpa entries *)
  ept_perms : Perm.t;
  pt_gen : int;  (** guest-PT generation at fill; 0 for gpa entries *)
  ept_gen : int;
}

type t

(** Space id for EPT-only (gpa→spa) entries; guest-PT ids start at 1. *)
val gpa_space : int

(** Where a [(space, vfn)] pair starts probing (before masking to the
    table size).  Pairs with equal hashes are both kept; each is only
    ever served its own frame. *)
val hash : space:int -> vfn:int -> int

(** What {!lookup} returns when it has no usable entry. *)
val miss : int

(** [create ?max_entries ?stats ()] — [stats] may be shared (e.g. with
    the hypervisor's audit counters); the cache resets wholesale when
    [max_entries] is reached.  The table starts small and doubles as
    entries are installed. *)
val create : ?max_entries:int -> ?stats:stats -> unit -> t

val stats : t -> stats
val entry_count : t -> int

(** Drop every entry (also done by {!install} when [max_entries] is
    reached) and bump the {!epoch}. *)
val flush : t -> unit

(** Counts flushes.  Entries leave the cache only by a flush, so an
    entry present under one epoch is still present while the epoch is
    unchanged: a translation held since then, and still current in its
    EPT generation, is exactly what {!lookup} would return. *)
val epoch : t -> int

(** Returns the backing frame iff the entry for exactly [(space, vfn)]
    is generation-current and its cached permissions allow [access],
    else {!miss}; counts a hit or miss. *)
val lookup :
  t -> space:int -> vfn:int -> access:Perm.access -> pt_gen:int -> ept_gen:int -> int

(** Fill (or replace) the entry for the entry's own [(space, vfn)]. *)
val install : t -> entry -> unit

(** Count a hit for an access that used, instead of a lookup, a
    translation held since the current {!epoch}. *)
val note_hit : t -> unit

val count_walks : t -> int -> unit
