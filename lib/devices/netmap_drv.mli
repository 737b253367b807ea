(** netmap over an e1000-like NIC (§6.1.2, Figure 2): TX ring and
    buffers in driver memory mmap'd into the application, poll-driven
    txsync, wire-speed drain (1.488 Mpps at 64 B on 1 GbE). *)

val nioc_regif : int
val nioc_txsync : int
val hdr_cur : int
val hdr_tail : int
val slots_off : int
val slot_bytes : int

type t

(** A 1024-slot TX ring of 2048-byte buffers on a 1 Gb/s NIC. *)
val create : Oskit.Kernel.t -> iommu:Memory.Iommu.t -> t

val tx_packets : t -> int
val wire_time_us : len:int -> float

(** Start the NIC TX engine (idles until kicked). *)
val start : t -> unit

(** Registers single-open (§5.1). *)
val register : t -> path:string -> Oskit.Defs.device

val ring_bytes : t -> int
