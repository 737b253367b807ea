(** Self-virtualized (SR-IOV-style) devices (Table 3's "Self Virt."):
    near-native per-operation cost, sharing bounded by the VF budget,
    no legacy-device support. *)

val max_vfs : int

type t

exception No_vf_available

val make : unit -> t

(** Returns the VF's device path. *)
val assign_vf : t -> string

val env : t -> Workloads.Runner.env
