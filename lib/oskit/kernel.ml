(** A simulated Unix-like kernel instance (one per VM). *)

type costs = { syscall_us : float (* user/kernel crossing *) }

let zero_costs = { syscall_us = 0. }

(** Calibrated so a native no-op file operation costs well under a
    microsecond, matching the paper's native baselines. *)
let default_costs = { syscall_us = 0.3 }

type t = {
  engine : Sim.Engine.t;
  vm : Hypervisor.Vm.t;
  flavor : Os_flavor.t;
  devfs : Devfs.t;
  costs : costs;
  mutable tasks : Defs.task list;
  (* Per-kernel id allocators.  These used to be process-wide globals;
     scoping them to the kernel keeps every id deterministic per
     machine, so independent fleet shards produce bit-identical
     results no matter how many shards ran before them (and no matter
     which OCaml domain runs them). *)
  mutable next_pid : int;
  mutable next_pt_id : int;
  mutable next_file_id : int;
}

let create ~engine ~vm ~flavor ?(costs = default_costs) () =
  {
    engine;
    vm;
    flavor;
    devfs = Devfs.create ();
    costs;
    tasks = [];
    next_pid = 0;
    next_pt_id = 0;
    next_file_id = 0;
  }

let engine t = t.engine
let vm t = t.vm
let flavor t = t.flavor
let devfs t = t.devfs

let spawn_task t ~name =
  t.next_pid <- t.next_pid + 1;
  t.next_pt_id <- t.next_pt_id + 1;
  let task = Task.create ~pid:t.next_pid ~pt_id:t.next_pt_id ~name ~vm:t.vm in
  t.tasks <- task :: t.tasks;
  task

(** Allocate a file id ({!Vfs.openf}); unique per kernel, which is the
    scope every consumer keys by. *)
let alloc_file_id t =
  t.next_file_id <- t.next_file_id + 1;
  t.next_file_id

(** Charge simulated time; a no-op under zero costs so purely
    functional tests can run outside the engine. *)
let charge _t amount = if amount > 0. then Sim.Engine.wait amount

let charge_syscall t = charge t t.costs.syscall_us
let syscall_cost t = t.costs.syscall_us
