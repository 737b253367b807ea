(** Camera: a UVC-like sensor under a V4L2-like streaming driver
    (REQBUFS / QBUF / DQBUF / STREAMON, mmap'd frame buffers) —
    the §6.1.6 GUVCview workload's device. *)

val vidioc_reqbufs : int
val vidioc_querybuf : int
val vidioc_qbuf : int
val vidioc_dqbuf : int
val vidioc_streamon : int
val vidioc_streamoff : int
val vidioc_s_fmt : int

type t

val create : Oskit.Kernel.t -> fps:float -> t
val frames_delivered : t -> int

(** Start the sensor process (idles when not streaming). *)
val start_sensor : t -> unit

(** Registers single-open (§5.1: camera drivers allow one process). *)
val register : t -> path:string -> Oskit.Defs.device
