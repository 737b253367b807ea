(** Access permissions for page-table, EPT and IOMMU entries. *)

type t = { read : bool; write : bool; exec : bool }

val none : t
val r : t
val rw : t
val rwx : t
(* no write-only constructor: x86 cannot express it (§5.3 change iv) *)

type access = Read | Write | Exec

val allows : t -> access -> bool

(** [subsumes a b]: every access [b] grants, [a] grants too. *)
val subsumes : t -> t -> bool

val without_read : t -> t
val equal : t -> t -> bool
val pp_access : Format.formatter -> access -> unit
