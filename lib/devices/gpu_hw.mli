(** GPU hardware model (Radeon Evergreen-like): VRAM behind the memory
    controller, an in-order command processor with a calibrated cost
    model, 3D/compute/blit engines, fences whose interrupt reason goes
    to system memory (the §5.3 quirk), and a breakable core (§8). *)

type location =
  | Sys_dma of int (** translated by the IOMMU *)
  | Vram of int (** byte offset into the aperture *)

type cmd =
  | Draw of { vertices : int; width : int; height : int; textures : location list }
  | Reg_write of { reg : int; value : int }
  | Compute_matmul of {
      order : int;
      a : location;
      b : location;
      out : location;
      full : bool; (** real product vs probe-and-charge *)
    }
  | Blit of { src : location; dst : location; len : int }
  | Fence of int

type costs = {
  base_cmd_us : float;
  vertex_us : float;
  pixel_us : float;
  flop_us : float;
  blit_byte_us : float;
  irq_latency_us : float;
}

val default_costs : costs

(** Writing zero here hangs the core (the §8 breakage scenario). *)
val reg_clock_ctl : int

(** Command scheduling across clients: the prototype's FIFO, or the
    per-client round-robin of §8's scheduling suggestion. *)
type scheduling = Fifo | Fair

val fence_reason_code : int

type t

val create :
  Sim.Engine.t ->
  Memory.Phys_mem.t ->
  iommu:Memory.Iommu.t ->
  vram_pages:int ->
  ?costs:costs ->
  unit ->
  t

val mem_ctrl : t -> Mem_ctrl.t
val vram_base : t -> int
val vram_bytes : t -> int
val faults : t -> string list
val frames_rendered : t -> int
val commands_executed : t -> int
val is_wedged : t -> bool

(** Hardware reset: recovers a wedged core; in-flight work is lost. *)
val reset : t -> unit

val bind_irq : t -> (unit -> unit) -> unit

(** Where to DMA the interrupt reason; [None] disables reason writes
    (the data-isolation configuration, §5.3). *)
val set_irq_status_buffer : t -> int option -> unit

val set_scheduling : t -> scheduling -> unit

(** Submit a command to the ring (driver side); [client] tags the
    submitting guest for fair scheduling. *)
val submit : ?client:int -> t -> cmd -> unit

(** Start the command processor. *)
val start : t -> unit
