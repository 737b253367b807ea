(** Paradice public API — one-stop entry points.

    {[
      (* boot a machine with a GPU and two guests *)
      let m = Paradice.Api.boot () in
      let gpu = Paradice.Machine.attach_gpu m in
      let g1 = Paradice.Machine.add_guest m ~name:"g1" () in
      ...
    ]}

    See [examples/] for runnable programs and {!Machine} for the full
    builder vocabulary. *)

let version = "1.0.0"

(** Boot an empty Paradice machine (driver VM + hypervisor, no devices
    or guests yet). *)
let boot ?config () = Machine.create ?config ()

(** Run the machine's simulation until quiescent (or [until], in
    microseconds of simulated time). *)
let run ?until m = Sim.Engine.run ?until (Machine.engine m)

(** Simulated time, microseconds. *)
let now m = Sim.Engine.now (Machine.engine m)
