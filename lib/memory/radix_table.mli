(** Generic multi-level radix page table — the common structure behind
    guest page tables and EPTs, with levels modelled explicitly so
    software walks, partial level creation and permission surgery all
    behave as on hardware. *)

type node
and leaf = { target_pfn : int; perms : Perm.t }

type t

(** [create ~widths] with one index-bit width per level, root first. *)
val create : widths:int list -> t

val mapped_count : t -> int
val node_count : t -> int

(** Mutation counter: bumped by every {!map}, successful {!unmap} and
    {!set_perms}.  Software TLBs record it at fill time; a mismatch on
    lookup means the cached translation may be stale and must be
    re-walked — the invalidation rule that keeps cached translations
    from outliving revoked mappings (§4.1). *)
val generation : t -> int

type walk_result =
  | Mapped of leaf
  | Missing_level of int (** intermediate table absent at this depth *)
  | Not_present (** levels exist; final entry empty *)

val walk : t -> int -> walk_result
val lookup : t -> int -> leaf option

(** Create intermediate tables down to (excluding) the leaf level —
    what the CVD frontend does before forwarding an mmap (§5.2). *)
val ensure_intermediate : t -> int -> unit

val intermediate_present : t -> int -> bool
val map : t -> vfn:int -> pfn:int -> perms:Perm.t -> unit
val unmap : t -> int -> bool

(** Replace an existing mapping's permissions; [Not_found] if absent. *)
val set_perms : t -> vfn:int -> perms:Perm.t -> unit

val iter : t -> (int -> leaf -> unit) -> unit
