(** Full device emulation (Table 3's "Emulation" row): every file
    operation trap-and-emulated at QEMU-like per-operation cost. *)

type t

val make : unit -> t
val env : t -> Workloads.Runner.env
