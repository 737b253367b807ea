(** Operating-system flavors and their file-operation vocabularies
    (§3.2.2, §5.1): Linux 2.6.35, Linux 3.2.0 and FreeBSD 9 share the
    driver-core operations; each also has extras the CVD must know. *)

type op_kind =
  | Open
  | Release
  | Read
  | Write
  | Ioctl
  | Mmap
  | Poll
  | Fasync
  | Fault
  | Lseek
  | Flush
  | Fsync
  | Fallocate
  | Splice_read
  | Splice_write
  | Compat_ioctl
  | Kqueue

type t = Linux_2_6_35 | Linux_3_2_0 | Freebsd_9

val name : t -> string
val supported_ops : t -> op_kind list
val supports : t -> op_kind -> bool

(** The operations device drivers actually implement (§2.1), present
    with the same semantics in every flavor. *)
val driver_core_ops : op_kind list

val op_kind_name : op_kind -> string
