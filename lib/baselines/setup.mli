(** Experiment setups: one builder per point of comparison in §6.
    Every setup yields a {!Workloads.Runner.env}, so identical
    workload code measures every configuration. *)

type mode =
  | Native
  | Device_assign
  | Paradice of Paradice.Config.t
  | Paradice_freebsd of Paradice.Config.t

val mode_label : mode -> string

type device = Gpu | Mouse | Keyboard | Camera | Audio | Netmap | Null

(** Build a machine + env; Paradice modes get one guest plus
    [extra_guests], and GPU data isolation when the config asks. *)
val make :
  ?extra_guests:int ->
  devices:device list ->
  mode ->
  Paradice.Machine.t * Workloads.Runner.env
