(** User-memory access for drivers, with the wrapper stubs of §5.2:
    when the calling thread is marked as serving a remote guest
    process, the operations redirect to the hypervisor memory-op API;
    otherwise they act locally.  Drivers stay unmodified. *)

open Defs

(** Observation hook: records every driver memory operation (used by
    the analyzer's driver-agreement tests and by tracing). *)
type recorded_op =
  | Rec_copy_from of { uaddr : int; len : int }
  | Rec_copy_to of { uaddr : int; len : int }
  | Rec_insert_pfn of { gva : int }

val with_recorder : (recorded_op -> unit) -> (unit -> 'a) -> 'a

(** Driver reads/writes the current process's memory.  Raise
    [Errno.Unix_error EFAULT] on bad pointers or rejected grants. *)
val copy_from_user : task -> uaddr:int -> len:int -> bytes

val copy_to_user : task -> uaddr:int -> bytes -> unit

val copy_to_user_u32 : task -> uaddr:int -> int -> unit

(** Map one page (named by its driver-VM guest-physical address) into
    the current process at [gva] — the [vm_insert_pfn] analogue. *)
val insert_pfn : task -> gva:int -> page_gpa:int -> perms:Memory.Perm.t -> unit

(** Tear down an {!insert_pfn} mapping. *)
val remove_pfn : task -> gva:int -> unit
