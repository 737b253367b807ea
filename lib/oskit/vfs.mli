(** The VFS layer: system calls on device files (§2.1).  Driver errors
    ([Errno.Unix_error]) become [Error] results, like negative syscall
    returns. *)

open Defs

type 'a result = ('a, Errno.t) Stdlib.result

(** {1 File-level operations}

    The fd system calls wrap these, and the CVD backend calls them on
    the files it keys by virtual descriptor; they are the only callers
    of a driver's [fop_*] handlers.  None charges the syscall cost, and
    driver errors propagate as [Errno.Unix_error]. *)

(** The device at a path, if it may be opened now: ENODEV when there is
    none, EBUSY when it is single-open and already open. *)
val openable : Kernel.t -> string -> device

(** Open a device as file [file_id]: the driver's open handler, then
    the device's open count. *)
val open_file : task -> device -> file_id:int -> file

(** Close a file, drop the device's open count and cancel every SIGIO
    subscription, even when the driver's release handler raises; its
    error is re-raised afterwards. *)
val release_file : task -> file -> unit

val read_file : task -> file -> buf:int -> len:int -> int
val write_file : task -> file -> buf:int -> len:int -> int
val ioctl_file : task -> file -> cmd:int -> arg:int64 -> int

(** Map [len] bytes of the file at page offset [pgoff] to [gva]; returns
    the new mapping. *)
val mmap_file : task -> file -> gva:int -> len:int -> pgoff:int -> vma

(** Resolve a fault at [gva] through the mapping among [vmas] that
    covers it; EFAULT outside them all. *)
val fault_vmas : task -> vma list -> gva:int -> unit

(** The poll loop: block until ready or [timeout] (microseconds). *)
val poll_file :
  Kernel.t -> task -> file -> want_in:bool -> want_out:bool -> timeout:float ->
  poll_result

(** (Un)subscribe a task to the file's SIGIO, once the driver accepts. *)
val fasync_file : task -> file -> on:bool -> unit

(** Driver-side: SIGIO every subscribed process. *)
val kill_fasync : file -> unit

(** {1 System calls on file descriptors} *)

val openf : Kernel.t -> task -> string -> int result

(** The descriptor is gone even when the driver's release handler
    fails, whose error is still returned. *)
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
