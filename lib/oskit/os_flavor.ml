(** Operating-system flavors and their file-operation vocabularies.

    Paradice's frontend keeps "the list of all possible file
    operations" of its kernel (§5.1: supporting a new Linux version
    took 14 LoC of exactly this).  We model the three kernels the
    paper deployed: Linux 2.6.35, Linux 3.2.0 and FreeBSD 9.  The
    operations device drivers rely on (§2.1) exist in all three with
    the same semantics; each kernel also has extra operations that the
    CVD must know about even though no tested driver uses them. *)

type op_kind =
  | Open
  | Release
  | Read
  | Write
  | Ioctl
  | Mmap
  | Poll
  | Fasync
  | Fault (* page-fault handler backing mmap *)
  | Lseek
  | Flush
  | Fsync
  (* newer-kernel additions, unused by the drivers the paper tested *)
  | Fallocate
  | Splice_read
  | Splice_write
  | Compat_ioctl
  | Kqueue (* FreeBSD's event mechanism, analogous to poll *)

type t = Linux_2_6_35 | Linux_3_2_0 | Freebsd_9

let name = function
  | Linux_2_6_35 -> "Linux 2.6.35"
  | Linux_3_2_0 -> "Linux 3.2.0"
  | Freebsd_9 -> "FreeBSD 9.0"

(** The file operations a kernel version knows about.  The common core
    is identical — that stability is the premise of the device-file
    boundary (§3.2.2). *)
let supported_ops = function
  | Linux_2_6_35 ->
      [ Open; Release; Read; Write; Ioctl; Mmap; Poll; Fasync; Fault; Lseek;
        Flush; Fsync; Compat_ioctl ]
  | Linux_3_2_0 ->
      (* the four additions the paper's frontend update covered *)
      [ Open; Release; Read; Write; Ioctl; Mmap; Poll; Fasync; Fault; Lseek;
        Flush; Fsync; Compat_ioctl; Fallocate; Splice_read; Splice_write ]
  | Freebsd_9 ->
      [ Open; Release; Read; Write; Ioctl; Mmap; Poll; Fasync; Fault; Lseek;
        Fsync; Kqueue ]

let supports flavor op = List.mem op (supported_ops flavor)

(** Operations that device drivers actually implement (§2.1) — present
    and semantically compatible in every flavor. *)
let driver_core_ops = [ Open; Release; Read; Write; Ioctl; Mmap; Poll; Fasync; Fault ]

let op_kind_name = function
  | Open -> "open"
  | Release -> "release"
  | Read -> "read"
  | Write -> "write"
  | Ioctl -> "ioctl"
  | Mmap -> "mmap"
  | Poll -> "poll"
  | Fasync -> "fasync"
  | Fault -> "fault"
  | Lseek -> "lseek"
  | Flush -> "flush"
  | Fsync -> "fsync"
  | Fallocate -> "fallocate"
  | Splice_read -> "splice_read"
  | Splice_write -> "splice_write"
  | Compat_ioctl -> "compat_ioctl"
  | Kqueue -> "kqueue"
