(** Audio: an HDA-like PCM playback device whose codec drains the ring
    at the sample rate, so playback takes realtime in every
    configuration (§6.1.6). *)

val set_rate_ioctl : int
val drain_ioctl : int

type t

val create : Oskit.Kernel.t -> t
val consumed_bytes : t -> int
val bytes_per_second : t -> int

val start_codec : t -> unit
val register : t -> path:string -> Oskit.Defs.device
