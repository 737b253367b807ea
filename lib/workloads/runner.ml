(** Workload execution support.

    A workload receives an {!env}: the kernel its application should
    run against plus the owning machine.  The same workload code runs
    unchanged under Native, Device_assignment and Paradice because the
    only interface it uses is the device file — which is the paper's
    thesis in executable form. *)

open Oskit

type env = {
  label : string;
  machine : Paradice.Machine.t;
  kernel : Kernel.t; (* where the application runs *)
}

(** Build an env for the machine's primary application kernel. *)
let of_machine ~label machine =
  { label; machine; kernel = Paradice.Machine.app_kernel machine }

(** Env for a specific guest (multi-guest experiments). *)
let of_guest ~label machine (guest : Paradice.Machine.guest) =
  { label; machine; kernel = guest.Paradice.Machine.kernel }

let engine env = Paradice.Machine.engine env.machine

let now_us env = Sim.Engine.now (engine env)

let spawn_app env ~name = Paradice.Machine.spawn_app env.machine env.kernel ~name

(** Run [f] as a simulated process and drive the simulation to
    completion; returns [f]'s result. *)
let run_to_completion env f =
  let result = ref None in
  Sim.Engine.spawn (engine env) (fun () -> result := Some (f ()));
  Sim.Engine.run (engine env);
  match !result with
  | Some v -> v
  | None -> failwith "workload did not complete (simulation deadlock?)"

(** Spawn without running (concurrent workloads started together). *)
let spawn env f = Sim.Engine.spawn (engine env) f

let run env = Sim.Engine.run (engine env)

exception Syscall_failed of Errno.t * string

let ok ~what = function
  | Ok v -> v
  | Error e -> raise (Syscall_failed (e, what))

(* -- common application idioms -- *)

let openf env task path = ok ~what:("open " ^ path) (Vfs.openf env.kernel task path)
let close env task fd = ok ~what:"close" (Vfs.close env.kernel task fd)

let ioctl env task fd ~cmd ~arg =
  ok ~what:"ioctl" (Vfs.ioctl env.kernel task fd ~cmd ~arg)

let write env task fd ~buf ~len = ok ~what:"write" (Vfs.write env.kernel task fd ~buf ~len)

let mmap env task fd ~len ~pgoff =
  ok ~what:"mmap" (Vfs.mmap env.kernel task fd ~len ~pgoff)

let poll env task fd ~want_in ~want_out ~timeout =
  ok ~what:"poll" (Vfs.poll env.kernel task fd ~want_in ~want_out ~timeout)

let u32 task ~gva = Task.read_u32 task ~gva
let put_u32 task ~gva v = Task.write_u32 task ~gva v
let u64 task ~gva = Int64.to_int (Task.read_u64 task ~gva)
let put_u64 task ~gva v = Task.write_u64 task ~gva (Int64.of_int v)
