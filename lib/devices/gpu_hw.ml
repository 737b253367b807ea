(** GPU hardware model (Radeon Evergreen-like, e.g. the HD 6450).

    The device owns:
    - a VRAM aperture exposed as system-physically-addressable frames
      (a PCI BAR), guarded by the {!Mem_ctrl} bounds registers;
    - a command processor: an in-order queue of commands executed by a
      simulation process with a calibrated cost model;
    - engines: 3D (draw), compute (matrix multiply — the GPGPU workload
      of §6.1.4), and a blit/DMA engine;
    - fences: completion of a [Fence n] command publishes [n], writes
      the interrupt reason to a {e system-memory} buffer via DMA (the
      Evergreen quirk §5.3 turns on) and raises the interrupt line.

    All data-plane accesses go through the IOMMU (system memory) or
    the memory controller (device memory), so isolation failures
    surface exactly where they would on hardware. *)

type location =
  | Sys_dma of int (* DMA address, translated by the IOMMU *)
  | Vram of int (* byte offset into the VRAM aperture *)

type cmd =
  | Draw of {
      vertices : int;
      width : int;
      height : int;
      textures : location list; (* sampled during rendering *)
    }
  | Reg_write of { reg : int; value : int }
      (* raw register write from the command stream: carefully chosen
         values can break the device (§8's "writing unexpected values
         into the device registers") *)
  | Compute_matmul of {
      order : int;
      a : location;
      b : location;
      out : location;
      full : bool;
          (* [full]: read inputs and write the true product (tests);
             otherwise probe the buffers but charge the same modelled
             time (large benchmark orders) *)
    }
  | Blit of { src : location; dst : location; len : int }
  | Fence of int

(** Command scheduling across clients (guests): the paper's prototype
    is FIFO; [Fair] adds the per-client round-robin the paper points
    to (§8, "add better scheduling support to the device driver, such
    as in [TimeGraph]") so one guest flooding the ring cannot starve
    another's submissions. *)
type scheduling = Fifo | Fair

type costs = {
  base_cmd_us : float; (* command fetch/decode *)
  vertex_us : float;
  pixel_us : float;
  flop_us : float; (* per multiply-accumulate *)
  blit_byte_us : float;
  irq_latency_us : float;
}

(** Calibrated against §6's absolute numbers: a ~40k-vertex frame at
    800x600 renders in ~14 ms (70 FPS); a 500x500 matmul takes ~10 s. *)
let default_costs =
  {
    base_cmd_us = 5.;
    vertex_us = 0.3;
    pixel_us = 0.006;
    flop_us = 0.04;
    blit_byte_us = 0.00025;
    irq_latency_us = 4.;
  }

type t = {
  engine : Sim.Engine.t;
  phys : Memory.Phys_mem.t;
  iommu : Memory.Iommu.t;
  mc : Mem_ctrl.t;
  vram_base : int; (* spa *)
  vram_bytes : int;
  costs : costs;
  ring : unit Sim.Mailbox.t; (* one token per queued command *)
  queues : (int, cmd Queue.t) Hashtbl.t; (* per-client command queues *)
  mutable rr_order : int list; (* round-robin order over client ids *)
  mutable scheduling : scheduling;
  mutable irq_handler : (unit -> unit) option;
  mutable irq_status_dma : int option;
      (* where to DMA the interrupt reason; [None] disables reason
         writes (the data-isolation configuration) *)
  mutable faults : string list; (* blocked accesses, newest first *)
  mutable frames_rendered : int;
  mutable commands_executed : int;
  mutable wedged : bool; (* broken by a bad register write; needs reset *)
}

(* Writing this clock-control register with an out-of-range divider
   hangs the core — the §8 breakage scenario. *)
let reg_clock_ctl = 0x120

let fence_reason_code = 0x4

let create engine phys ~iommu ~vram_pages ?(costs = default_costs) () =
  let vram_base_spn = Memory.Phys_mem.alloc_frames phys vram_pages in
  let vram_base = Memory.Addr.of_pfn vram_base_spn in
  let vram_bytes = vram_pages * Memory.Addr.page_size in
  {
    engine;
    phys;
    iommu;
    mc = Mem_ctrl.create ~vram_base ~vram_bytes;
    vram_base;
    vram_bytes;
    costs;
    ring = Sim.Mailbox.create engine;
    queues = Hashtbl.create 4;
    rr_order = [];
    scheduling = Fifo;
    irq_handler = None;
    irq_status_dma = None;
    faults = [];
    frames_rendered = 0;
    commands_executed = 0;
    wedged = false;
  }

let mem_ctrl t = t.mc
let vram_base t = t.vram_base
let vram_bytes t = t.vram_bytes
let faults t = t.faults
let frames_rendered t = t.frames_rendered
let commands_executed t = t.commands_executed

let bind_irq t handler = t.irq_handler <- Some handler
let set_irq_status_buffer t dma = t.irq_status_dma <- dma

let is_wedged t = t.wedged
let set_scheduling t s = t.scheduling <- s

(** Hardware reset: recovers a wedged GPU (the driver-restart /
    shadow-driver recovery of §8).  In-flight commands are lost. *)
let reset t =
  t.wedged <- false;
  Sim.Mailbox.clear t.ring;
  Hashtbl.iter (fun _ q -> Queue.clear q) t.queues

exception Gpu_fault of string

(* Resolve a location for an access of [len] bytes; faults propagate as
   Gpu_fault so the command is dropped, like a channel error. *)
let resolve t loc ~len ~access =
  match loc with
  | Sys_dma dma -> (
      try Memory.Iommu.translate t.iommu ~dma ~access
      with Memory.Fault.Iommu_fault info ->
        raise (Gpu_fault (Fmt.str "%a" Memory.Fault.pp_info info)))
  | Vram off ->
      let spa = t.vram_base + off in
      (try Mem_ctrl.check t.mc ~spa ~len ~access
       with Memory.Fault.Bus_error info ->
         raise (Gpu_fault (Fmt.str "%a" Memory.Fault.pp_info info)));
      spa

(* Device reads/writes cross page boundaries; DMA translation is per
   page like any bus master's, and each page's bytes move straight
   between the frame and the caller's buffer. *)
let loc_base = function Sys_dma d -> d | Vram v -> v
let loc_at loc addr = match loc with Sys_dma _ -> Sys_dma addr | Vram _ -> Vram addr

let rec read_pages t loc ~addr ~dst ~dst_off ~len =
  if len > 0 then begin
    let room = Memory.Addr.page_size - Memory.Addr.offset addr in
    let chunk = if room < len then room else len in
    let spa = resolve t (loc_at loc addr) ~len:chunk ~access:Memory.Perm.Read in
    Memory.Phys_mem.read_into t.phys ~spa ~dst ~dst_off ~len:chunk;
    read_pages t loc ~addr:(addr + chunk) ~dst ~dst_off:(dst_off + chunk)
      ~len:(len - chunk)
  end

let rec write_pages t loc ~addr ~src ~src_off ~len =
  if len > 0 then begin
    let room = Memory.Addr.page_size - Memory.Addr.offset addr in
    let chunk = if room < len then room else len in
    let spa = resolve t (loc_at loc addr) ~len:chunk ~access:Memory.Perm.Write in
    Memory.Phys_mem.write_from t.phys ~spa ~src ~src_off ~len:chunk;
    write_pages t loc ~addr:(addr + chunk) ~src ~src_off:(src_off + chunk)
      ~len:(len - chunk)
  end

let read_loc t loc ~len =
  let out = Bytes.create len in
  read_pages t loc ~addr:(loc_base loc) ~dst:out ~dst_off:0 ~len;
  out

let write_loc t loc data =
  write_pages t loc ~addr:(loc_base loc) ~src:data ~src_off:0 ~len:(Bytes.length data)

let read_f64 t loc ~index =
  Int64.float_of_bits
    (Bytes.get_int64_le (read_loc t (loc_at loc (loc_base loc + (index * 8))) ~len:8) 0)

let write_f64 t loc ~index v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float v);
  write_loc t (loc_at loc (loc_base loc + (index * 8))) b

let exec_draw t ~vertices ~width ~height ~textures =
  (* Sample each texture: a handful of reads per texture keeps the
     IOMMU/MC checks on the data path without copying whole surfaces. *)
  List.iter (fun tex -> ignore (read_loc t tex ~len:64)) textures;
  let cost =
    t.costs.base_cmd_us
    +. (float_of_int vertices *. t.costs.vertex_us)
    +. (float_of_int (width * height) *. t.costs.pixel_us)
  in
  Sim.Engine.wait cost;
  t.frames_rendered <- t.frames_rendered + 1

let exec_matmul t ~order ~a ~b ~out ~full =
  let flops = 2. *. (float_of_int order ** 3.) in
  if full then begin
    (* real product over f64 row-major matrices *)
    for i = 0 to order - 1 do
      for j = 0 to order - 1 do
        let acc = ref 0. in
        for k = 0 to order - 1 do
          acc := !acc +. (read_f64 t a ~index:((i * order) + k)
                          *. read_f64 t b ~index:((k * order) + j))
        done;
        write_f64 t out ~index:((i * order) + j) !acc
      done
    done
  end
  else begin
    (* probe corners of every buffer so permissions are still checked *)
    let last = (order * order) - 1 in
    ignore (read_f64 t a ~index:0);
    ignore (read_f64 t a ~index:last);
    ignore (read_f64 t b ~index:0);
    ignore (read_f64 t b ~index:last);
    write_f64 t out ~index:0 0.;
    write_f64 t out ~index:last 0.
  end;
  let cost = t.costs.base_cmd_us +. (flops *. t.costs.flop_us) in
  Sim.Engine.wait cost

let exec_blit t ~src ~dst ~len =
  let data = read_loc t src ~len in
  write_loc t dst data;
  let cost = t.costs.base_cmd_us +. (float_of_int len *. t.costs.blit_byte_us) in
  Sim.Engine.wait cost

let exec_fence t seq =
  (match t.irq_status_dma with
  | Some dma ->
      (* Evergreen writes the interrupt reason to system memory before
         interrupting (§5.3) — via DMA, hence through the IOMMU. *)
      let b = Bytes.create 8 in
      Bytes.set_int32_le b 0 (Int32.of_int fence_reason_code);
      Bytes.set_int32_le b 4 (Int32.of_int seq);
      write_loc t (Sys_dma dma) b
  | None -> ());
  let handler = t.irq_handler in
  Sim.Engine.at t.engine ~delay:t.costs.irq_latency_us (fun () ->
      match handler with Some h -> h () | None -> ())

(** Submit a command to the ring (driver-side).  [client] tags the
    submitting guest for fair scheduling; FIFO mode ignores it. *)
let submit ?(client = 0) t cmd =
  let q =
    match Hashtbl.find_opt t.queues client with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.queues client q;
        t.rr_order <- t.rr_order @ [ client ];
        q
  in
  Queue.add cmd q;
  Sim.Mailbox.send t.ring ()

(* Pick the next command according to the scheduling mode.  FIFO walks
   clients in arrival order but drains each queue in turn only as far
   as strict global FIFO cannot be recovered from per-client queues,
   so FIFO instead services the first nonempty queue without rotating
   — matching a single hardware ring fed in submission bursts.  Fair
   rotates the round-robin order after each pick. *)
let next_cmd t =
  let rec find = function
    | [] -> None
    | c :: rest -> (
        match Hashtbl.find_opt t.queues c with
        | Some q when not (Queue.is_empty q) -> Some (c, Queue.take q)
        | _ -> find rest)
  in
  match find t.rr_order with
  | None -> None
  | Some (client, cmd) ->
      (match t.scheduling with
      | Fifo -> ()
      | Fair ->
          (* rotate so the next pick starts after [client] *)
          t.rr_order <-
            (List.filter (fun c -> c <> client) t.rr_order) @ [ client ]);
      Some cmd

(** Start the command processor.  Runs for the lifetime of the
    simulation; faults drop the offending command and are recorded. *)
let start t =
  Sim.Engine.spawn t.engine ~name:"gpu" (fun () ->
      let rec loop () =
        let () = Sim.Mailbox.recv t.ring in
        (* A wedged core fetches nothing: commands pile up (and are
           discarded by reset), fences never complete — which is what
           the driver's watchdog detects. *)
        if t.wedged then loop ()
        else begin
          match next_cmd t with
          | None -> loop () (* token for a command dropped by reset *)
          | Some cmd ->
          t.commands_executed <- t.commands_executed + 1;
          (try
             match cmd with
             | Draw { vertices; width; height; textures } ->
                 exec_draw t ~vertices ~width ~height ~textures
             | Compute_matmul { order; a; b; out; full } ->
                 exec_matmul t ~order ~a ~b ~out ~full
             | Blit { src; dst; len } -> exec_blit t ~src ~dst ~len
             | Reg_write { reg; value } ->
                 if reg = reg_clock_ctl && value = 0 then t.wedged <- true
             | Fence seq -> exec_fence t seq
           with Gpu_fault msg -> t.faults <- msg :: t.faults);
          loop ()
        end
      in
      loop ())
