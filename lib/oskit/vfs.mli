(** The VFS layer: system calls on device files (§2.1).  Driver errors
    ([Errno.Unix_error]) become [Error] results, like negative syscall
    returns. *)

open Defs

type 'a result = ('a, Errno.t) Stdlib.result

val openf : Kernel.t -> task -> string -> int result
val close : Kernel.t -> task -> int -> unit result
val set_nonblock : Kernel.t -> task -> int -> nonblock:bool -> unit result
val read : Kernel.t -> task -> int -> buf:int -> len:int -> int result
val write : Kernel.t -> task -> int -> buf:int -> len:int -> int result
val ioctl : Kernel.t -> task -> int -> cmd:int -> arg:int64 -> int result

(** Map [len] bytes of the device at page offset [pgoff]; returns the
    chosen user address.  Pages may arrive eagerly or by fault. *)
val mmap : Kernel.t -> task -> int -> len:int -> pgoff:int -> int result

(** Unmap; guest page-table leaves are destroyed before the driver is
    told (§5.2's ordering). *)
val munmap : Kernel.t -> task -> gva:int -> unit result

(** User memory access with demand paging over device mappings — the
    application's load/store path. *)
val user_read : Kernel.t -> task -> gva:int -> len:int -> bytes

val user_write : Kernel.t -> task -> gva:int -> bytes -> unit

(** Block until readable/writable or [timeout] (microseconds). *)
val poll :
  Kernel.t -> task -> int -> want_in:bool -> want_out:bool -> timeout:float ->
  poll_result result

(** (Un)subscribe the calling process to asynchronous notification. *)
val fasync : Kernel.t -> task -> int -> on:bool -> unit result

(** Driver-side: SIGIO every subscribed process. *)
val kill_fasync : file -> unit
