(** Workload execution support: an {!env} names the kernel an
    application runs against; workloads use only the device-file
    interface, so one implementation measures every configuration. *)

type env = {
  label : string;
  machine : Paradice.Machine.t;
  kernel : Oskit.Kernel.t;
}

val of_machine : label:string -> Paradice.Machine.t -> env
val of_guest : label:string -> Paradice.Machine.t -> Paradice.Machine.guest -> env
val engine : env -> Sim.Engine.t
val now_us : env -> float
val spawn_app : env -> name:string -> Oskit.Defs.task

(** Run [f] as a simulated process and drive the simulation to
    completion. *)
val run_to_completion : env -> (unit -> 'a) -> 'a

val spawn : env -> (unit -> unit) -> unit
val run : env -> unit

exception Syscall_failed of Oskit.Errno.t * string

val ok : what:string -> ('a, Oskit.Errno.t) result -> 'a
val openf : env -> Oskit.Defs.task -> string -> int
val close : env -> Oskit.Defs.task -> int -> unit
val ioctl : env -> Oskit.Defs.task -> int -> cmd:int -> arg:int64 -> int
val write : env -> Oskit.Defs.task -> int -> buf:int -> len:int -> int
val mmap : env -> Oskit.Defs.task -> int -> len:int -> pgoff:int -> int

val poll :
  env -> Oskit.Defs.task -> int -> want_in:bool -> want_out:bool -> timeout:float ->
  Oskit.Defs.poll_result

val u32 : Oskit.Defs.task -> gva:int -> int
val put_u32 : Oskit.Defs.task -> gva:int -> int -> unit
val u64 : Oskit.Defs.task -> gva:int -> int
val put_u64 : Oskit.Defs.task -> gva:int -> int -> unit
