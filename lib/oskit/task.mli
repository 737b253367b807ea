(** Process management: creation, user-memory buffers, raw access,
    SIGIO delivery and the remote marking the CVD backend uses. *)

open Defs

(** [pid] and [pt_id] come from the owning kernel's per-VM counters
    (see {!Kernel.spawn_task}); the hypervisor keys per-process state
    by [(vm id, pid)], so per-VM uniqueness is all that is needed. *)
val create : pid:int -> pt_id:int -> name:string -> vm:Hypervisor.Vm.t -> task

(** Allocate process memory (page-granular backing from VM RAM);
    returns the user virtual address. *)
val alloc_buf : task -> int -> int

val free_buf : task -> gva:int -> len:int -> unit

(** Raw user-memory access (no demand paging — see [Vfs.user_read]). *)
val read_mem : task -> gva:int -> len:int -> bytes

val write_mem : task -> gva:int -> bytes -> unit
val read_u32 : task -> gva:int -> int
val write_u32 : task -> gva:int -> int -> unit
val read_u64 : task -> gva:int -> int64
val write_u64 : task -> gva:int -> int64 -> unit

(** Asynchronous-notification delivery (§2.1). *)
val on_sigio : task -> (unit -> unit) -> unit

val deliver_sigio : task -> unit

(** Run [f] with this thread marked as executing a file operation for
    the remote guest process [rc] (the CVD backend brackets driver
    invocations with it, §5.2); the mark is cleared however [f]
    exits. *)
val with_remote : task -> remote_ctx -> (unit -> 'a) -> 'a
