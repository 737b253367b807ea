(** Versioned session snapshots for planned driver-VM handoff: hot
    upgrade and session migration checkpoint exactly the backend-side
    state a successor driver VM needs to keep a guest's open files
    working — open vfds and their per-file state, VMA layouts,
    outstanding grant groups, and the containment record (so
    quarantine and quotas survive the swap).

    Not in a snapshot: device-internal driver state (drivers are
    re-entered through [fop_open], the §7.1 recovery model),
    hypervisor mappings (guest-keyed, they survive in place and are
    re-validated), and transport state (rings are rebuilt empty). *)

type file_rec = {
  fr_vfd : int;  (** the guest-visible virtual descriptor, preserved *)
  fr_path : string;  (** re-vetted through {!Proto.valid_path} on restore *)
  fr_fasync : bool;  (** had live SIGIO subscribers *)
  fr_nonblock : bool;
  fr_vmas : (int * int * int) list;  (** (gva, len, pgoff), oldest first *)
}

type link_snap = {
  ls_guest_vm_id : int;
  ls_next_vfd : int;
  ls_ops_served : int;
  ls_malformed : int;
  ls_rejected : int;
  ls_grant_faults : int;
  ls_quota_breaches : int;
  ls_score : int;
  ls_quarantined : bool;
  ls_files : file_rec list;  (** ascending vfd *)
  ls_grants : (int * Hypervisor.Grant_table.op list) list;
      (** outstanding grant-table groups, from {!Hypervisor.Grant_table.snapshot} *)
}

exception Malformed of string

(** Serialise to the little-endian versioned wire format. *)
val encode : link_snap -> string

(** Parse a blob; raises {!Malformed} on bad magic, an unsupported
    version, any out-of-bound length or tag, or trailing bytes —
    a corrupt checkpoint must never produce an undefined session. *)
val decode : string -> link_snap
