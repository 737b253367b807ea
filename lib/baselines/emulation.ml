(** Full device emulation — the "Emulation" row of Table 3.

    Every guest access to the virtual device traps to a userspace
    device model (QEMU-style): each file operation costs a string of
    VM exits plus the device-model work.  We model it as a per-
    operation emulation charge on an in-guest device file; no real
    hardware is shared, so functionality is limited to what the model
    implements (here: the null ioctl, enough to measure the latency
    floor). *)

open Oskit

(* ~30 exits x ~1.5 us per trap plus device-model dispatch: tens of
   microseconds per operation, the "poor performance" of §7.1. *)
let per_op_cost_us = 55.

type t = { machine : Paradice.Machine.t }

(** A guest-side machine whose null device is emulated. *)
let make () =
  let m = Paradice.Machine.create ~mode:Paradice.Machine.Device_assignment () in
  let kernel = Paradice.Machine.driver_kernel m in
  let ops =
    {
      Defs.default_ops with
      Defs.fop_kinds = [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Ioctl ];
      fop_ioctl =
        (fun _task _file ~cmd ~arg:_ ->
          Kernel.charge kernel per_op_cost_us;
          if cmd = Paradice.Machine.null_ioctl then 0
          else Errno.fail Errno.ENOTTY "emulated null device");
    }
  in
  Devfs.register (Kernel.devfs kernel)
    (Defs.make_device ~path:"/dev/null0" ~cls:"test" ~driver:"qemu-emulated" ops);
  { machine = m }

let env t = Workloads.Runner.of_machine ~label:"Emulation" t.machine
