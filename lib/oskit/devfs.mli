(** The /dev registry plus the kernel's exported device information
    (/sys in Linux, /dev/pci in FreeBSD — §2.1). *)

type t

val create : unit -> t
val register : t -> Defs.device -> unit
val lookup : t -> string -> Defs.device option
val list : t -> Defs.device list
val sysfs_set : t -> string -> string -> unit
val sysfs_get : t -> string -> string option
val sysfs_entries : t -> (string * string) list
