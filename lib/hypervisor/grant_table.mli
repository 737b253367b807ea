(** Grant table: the frontend's declaration of a file operation's
    legitimate memory operations (§4.1), stored in a page shared
    between guest and hypervisor and validated on every driver-VM
    request. *)

type op =
  | Copy_to_user of { addr : int; len : int }
      (** driver writes process memory *)
  | Copy_from_user of { addr : int; len : int }
      (** driver reads process memory *)
  | Map_page of { addr : int; len : int }
      (** driver maps device/system pages at these addresses *)

type t

exception Table_full

(** Raised by {!declare} when the group would push the guest's
    outstanding-entry count past its {!set_quota} cap (§7.1: one guest
    must not pin unbounded validation state). *)
exception Quota_exceeded

val capacity : int
val create : Memory.Phys_mem.t -> guest_vm:Vm.t -> t

(** Mutation counter — bumped by {!declare}, {!release} and
    {!revoke_all}; lets the hypervisor's grant-check cache detect
    stale entries. *)
val generation : t -> int

(** Frontend: declare a group of operations; returns the grant
    reference the backend must attach to its requests. *)
val declare : t -> op list -> int

(** Frontend: free the group once the file operation completed. *)
val release : t -> int -> unit

(** Revoke every outstanding declaration (driver-VM crash recovery);
    returns the number of entries cleared. *)
val revoke_all : t -> int

(** Outstanding (non-free) entries. *)
val active_entries : t -> int

(** Cap the guest's outstanding entries below the physical table
    capacity.  Rejects caps outside [1, capacity]. *)
val set_quota : t -> int -> unit

val quota : t -> int

(** How many {!declare} calls were refused with {!Quota_exceeded}. *)
val quota_breaches : t -> int

(** How many memory operations the hypervisor refused against this
    table (an undeclared or out-of-range request). *)
val violations : t -> int

(** Hypervisor: count one refused memory operation. *)
val note_violation : t -> unit

(** Checkpoint every outstanding declaration as [(grant_ref, group)]
    pairs in slot order (planned driver-VM handoff).  The table itself
    survives the swap; the snapshot re-validates it on restore. *)
val snapshot : t -> (int * op list) list

(** Re-validate the live table against a {!snapshot}: any group not
    exactly matching its checkpoint record is revoked.  Returns how
    many groups were revoked. *)
val verify_snapshot : t -> (int * op list) list -> int

(** Hypervisor: the operations declared under a reference. *)
val lookup : t -> int -> op list

(** Hypervisor: does the declared group cover [requested]?  Requests
    inside a declared range of the same kind are covered. *)
val authorises : t -> grant_ref:int -> requested:op -> bool

(** Pure variant of {!authorises} over an already-read group (the
    hypervisor's grant-check cache). *)
val authorises_ops : op list -> requested:op -> bool

val pp_op : Format.formatter -> op -> unit
