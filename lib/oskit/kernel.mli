(** A simulated Unix-like kernel instance (one per VM). *)

type costs = { syscall_us : float }

val zero_costs : costs

type t

val create :
  engine:Sim.Engine.t ->
  vm:Hypervisor.Vm.t ->
  flavor:Os_flavor.t ->
  ?costs:costs ->
  unit ->
  t

val engine : t -> Sim.Engine.t
val vm : t -> Hypervisor.Vm.t
val flavor : t -> Os_flavor.t
val devfs : t -> Devfs.t
val spawn_task : t -> name:string -> Defs.task

(** Allocate a file id ({!Vfs.openf} uses this); unique per kernel,
    the scope every consumer keys by. *)
val alloc_file_id : t -> int

(** Charge simulated time (no-op when zero, so functional tests can
    run outside the engine). *)
val charge : t -> float -> unit

val charge_syscall : t -> unit

(** The per-syscall charge of this kernel's cost model (what one
    {!charge_syscall} costs) — lets callers account CPU budgets. *)
val syscall_cost : t -> float
