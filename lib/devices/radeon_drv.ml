(** DRM/Radeon-like GPU driver.

    Exposes the device-file interface ({!Oskit.Defs.file_ops}) over the
    {!Gpu_hw} model: GEM buffer objects in VRAM or GTT, command
    submission with nested-copy chunk structures, fences, mmap of
    buffer objects, and the optional device-data-isolation mode — the
    analogue of the ~400 LoC the paper added to the Radeon driver
    (§5.3), implemented as the [isolation] field and the four change
    sets it triggers:

    (i)   GTT pages come from the hypervisor's protected per-region
          pools and are IOMMU-mapped through region-tagged requests;
    (ii)  per-region GART tables are created in each region's VRAM
          slice;
    (iii) the driver never touches the memory-controller MMIO page
          (the hypervisor owns it) — bounds follow the active region;
    (iv)  writes to protected VRAM buffers (the GART table) go through
          a hypercall, and the fence interrupt-reason buffer is
          disabled: every interrupt is interpreted as a fence. *)

open Oskit

type storage =
  | Gtt of { gpas : int array; spas : int array; mutable dma : int option }
  | Vram_bo of { offset : int } (* byte offset into the VRAM aperture *)

type bo = { size : int; pages : int; storage : storage }

type client = Local | Guest of int (* vm id *)

type t = {
  kernel : Kernel.t; (* the kernel hosting this driver *)
  gpu : Gpu_hw.t;
  iommu : Memory.Iommu.t;
  bar_gpa : int; (* driver-VM gpa of the VRAM BAR *)
  mc_mmio_gpa : int option; (* gpa of the MC register page, if mapped *)
  vram_alloc : Memory.Allocator.t; (* offsets within the aperture *)
  bos : (int * int, bo) Hashtbl.t; (* (file_id, handle) -> bo *)
  mmap_index : (int, int * int) Hashtbl.t; (* pgoff -> (file_id, handle) *)
  mutable next_handle : int;
  mutable next_dma : int;
  fence_wq : Wait_queue.t;
  mutable emitted_fence : int;
  mutable completed_fence : int; (* contiguous prefix of completed fences *)
  completed_set : (int, unit) Hashtbl.t;
      (* out-of-order completions beyond the prefix: under fair
         scheduling another client's later fence may retire first *)
  mutable isolation : isolation option;
  (* protected pool pages the driver donated at init: spa -> gpa *)
  pool_gpa_of_spa : (int, int) Hashtbl.t;
  (* per-region VRAM offset allocators (isolation mode) *)
  region_vram_allocs : (int, Memory.Allocator.t) Hashtbl.t;
  region_switch_cost_us : float; (* charged per IOMMU entry on switch *)
  mutable stats_region_switches : int;
  (* extensions beyond the paper's prototype *)
  mutable protect_command_streamer : bool; (* §8: reject dangerous registers *)
  mutable watchdog_timeout_us : float; (* fence timeout before GPU reset *)
  mutable stats_recoveries : int;
}

and isolation = { mgr : Hypervisor.Region.t }

let page_size = Memory.Addr.page_size

let gart_table_pages = 1 (* per region, at the start of each VRAM slice *)

let create ~kernel ~gpu ~iommu ~bar_gpa ~mc_mmio_gpa =
  {
    kernel;
    gpu;
    iommu;
    bar_gpa;
    mc_mmio_gpa = Some mc_mmio_gpa;
    vram_alloc =
      Memory.Allocator.create ~base:0 ~size:(Gpu_hw.vram_bytes gpu);
    bos = Hashtbl.create 64;
    mmap_index = Hashtbl.create 64;
    next_handle = 1;
    next_dma = 0x100000;
    fence_wq = Wait_queue.create (Kernel.engine kernel);
    emitted_fence = 0;
    completed_fence = 0;
    completed_set = Hashtbl.create 16;
    isolation = None;
    pool_gpa_of_spa = Hashtbl.create 64;
    region_vram_allocs = Hashtbl.create 4;
    region_switch_cost_us = 0.6;
    stats_region_switches = 0;
    protect_command_streamer = false;
    watchdog_timeout_us = infinity; (* opt-in: see set_watchdog_timeout *)
    stats_recoveries = 0;
  }

let gpu t = t.gpu
let completed_fence t = t.completed_fence
let stats_region_switches t = t.stats_region_switches
let stats_recoveries t = t.stats_recoveries
let set_command_streamer_protection t on = t.protect_command_streamer <- on
let set_watchdog_timeout t us = t.watchdog_timeout_us <- us

(** Fair per-guest GPU scheduling (§8's TimeGraph suggestion). *)
let set_fair_scheduling t on =
  Gpu_hw.set_scheduling t.gpu (if on then Gpu_hw.Fair else Gpu_hw.Fifo)

(* ------------------------------------------------------------------ *)
(* Initialisation                                                      *)
(* ------------------------------------------------------------------ *)

(** Non-isolated initialisation: program the MC bounds wide open
    through the MMIO page and set up the interrupt-reason buffer in
    driver system memory, DMA-mapped for the device. *)
let init_native t =
  (match t.mc_mmio_gpa with
  | Some gpa ->
      let vm = Kernel.vm t.kernel and pt = Hypervisor.Vm.no_pt in
      Hypervisor.Vm.write_u64 vm ~pt ~addr:(gpa + Mem_ctrl.reg_low_bound)
        (Int64.of_int (Gpu_hw.vram_base t.gpu));
      Hypervisor.Vm.write_u64 vm ~pt ~addr:(gpa + Mem_ctrl.reg_high_bound)
        (Int64.of_int (Gpu_hw.vram_base t.gpu + Gpu_hw.vram_bytes t.gpu))
  | None -> ());
  (* interrupt-reason buffer: one driver RAM page, device-writable *)
  let vm = Kernel.vm t.kernel in
  let gpa = Hypervisor.Vm.alloc_gpa_page vm in
  let spa =
    match Memory.Ept.lookup (Hypervisor.Vm.ept vm) ~gpa with
    | Some (spa, _) -> spa
    | None -> assert false
  in
  let dma = t.next_dma in
  t.next_dma <- t.next_dma + page_size;
  Memory.Iommu.map t.iommu ~dma ~spa ~perms:Memory.Perm.rw ~region:None;
  Gpu_hw.set_irq_status_buffer t.gpu (Some dma);
  Gpu_hw.bind_irq t.gpu (fun () ->
      (* read the reason from system memory, as Evergreen does *)
      let reason = Hypervisor.Vm.read_u32 vm ~pt:Hypervisor.Vm.no_pt ~addr:gpa in
      if reason = Gpu_hw.fence_reason_code then begin
        let seq = Hypervisor.Vm.read_u32 vm ~pt:Hypervisor.Vm.no_pt ~addr:(gpa + 4) in
        Hashtbl.replace t.completed_set seq ();
        (* compact the contiguous prefix *)
        while Hashtbl.mem t.completed_set (t.completed_fence + 1) do
          Hashtbl.remove t.completed_set (t.completed_fence + 1);
          t.completed_fence <- t.completed_fence + 1
        done;
        Wait_queue.wake_all t.fence_wq
      end)

(** Data-isolation initialisation (§5.3).  Runs during the driver-VM
    boot window, when the driver is still trusted: donates its GTT
    page pools to the hypervisor, registers the MC bounds setter, sets
    up per-region GART tables, and switches to fence-only interrupt
    accounting (no readable reason buffer). *)
let init_isolated t ~mgr ~pool_pages =
  t.isolation <- Some { mgr };
  (* remember the gpa of every donated pool page so insert_pfn can
     name them later *)
  List.iter
    (fun (gpa, spa) -> Hashtbl.replace t.pool_gpa_of_spa (Memory.Addr.pfn spa) gpa)
    pool_pages;
  (* the hypervisor owns the MC: clamp bounds on region switches *)
  Hypervisor.Region.install_dev_bounds_setter mgr (fun ~low ~high ->
      Mem_ctrl.set_bounds (Gpu_hw.mem_ctrl t.gpu) ~low ~high);
  (* change (ii): a GART table at the base of each region's slice,
     written through the hypercall of change (iv) *)
  let n_regions =
    let rec count i =
      match Hypervisor.Region.dev_slice mgr i with
      | _ -> count (i + 1)
      | exception Hypervisor.Region.Isolation_violation _ -> i
    in
    count 0
  in
  for rid = 0 to n_regions - 1 do
    let base, _ = Hypervisor.Region.dev_slice mgr rid in
    Hypervisor.Region.hyp_write_dev_mem mgr ~rid ~spa:base
      ~data:(Bytes.make 16 '\000')
  done;
  (* change (iv): no reason buffer; every interrupt is a fence *)
  Gpu_hw.set_irq_status_buffer t.gpu None;
  Gpu_hw.bind_irq t.gpu (fun () ->
      if t.completed_fence < t.emitted_fence then
        t.completed_fence <- t.completed_fence + 1;
      Wait_queue.wake_all t.fence_wq)

(* ------------------------------------------------------------------ *)
(* Client and region resolution                                        *)
(* ------------------------------------------------------------------ *)

let client_of (task : Defs.task) =
  match task.Defs.remote with
  | None -> Local
  | Some rc -> Guest (Hypervisor.Vm.id rc.Defs.rc_req.Hypervisor.Hyp.target)

let region_of t task =
  match (t.isolation, client_of task) with
  | None, _ -> None
  | Some { mgr }, Guest vm_id -> (
      match Hypervisor.Region.region_of_guest mgr vm_id with
      | Some rid -> Some (mgr, rid)
      | None -> Errno.fail Errno.EACCES "guest has no protected region")
  | Some _, Local ->
      (* With isolation enabled only guests use the GPU. *)
      Errno.fail Errno.EACCES "local access disabled under data isolation"

(* ------------------------------------------------------------------ *)
(* Buffer objects                                                      *)
(* ------------------------------------------------------------------ *)

let alloc_gtt_pages t task pages =
  match region_of t task with
  | None ->
      let vm = Kernel.vm t.kernel in
      let gpas = Array.init pages (fun _ -> Hypervisor.Vm.alloc_gpa_page vm) in
      let spas =
        Array.map
          (fun gpa ->
            match Memory.Ept.lookup (Hypervisor.Vm.ept vm) ~gpa with
            | Some (spa, _) -> spa
            | None -> assert false)
          gpas
      in
      (gpas, spas)
  | Some (mgr, rid) ->
      (* change (i): pages come from the region's protected pool *)
      let spas =
        Array.init pages (fun _ ->
            try Hypervisor.Region.alloc_protected_page mgr ~rid
            with Hypervisor.Region.Isolation_violation m -> Errno.fail Errno.ENOMEM m)
      in
      let gpas =
        Array.map
          (fun spa ->
            match Hashtbl.find_opt t.pool_gpa_of_spa (Memory.Addr.pfn spa) with
            | Some gpa -> gpa
            | None -> Errno.fail Errno.ENOMEM "pool page without known gpa")
          spas
      in
      (gpas, spas)

(** Write GART PTEs for a GTT bo.  Non-isolated: plain store through
    the BAR.  Isolated: the GART table lives in protected VRAM, so the
    driver must hypercall (change (iv)). *)
let write_gart_entries t task ~dma ~spas =
  let entry_bytes = Array.length spas * 8 in
  let data = Bytes.create entry_bytes in
  Array.iteri (fun i spa -> Bytes.set_int64_le data (i * 8) (Int64.of_int spa)) spas;
  (* entry slot derived from the dma pfn; the modelled table holds 128
     entries and the GPU's real translation happens in the IOMMU *)
  let table_off = ((dma lsr 12) land 0x7f) * 8 in
  let data =
    if table_off + entry_bytes > page_size then Bytes.sub data 0 (page_size - table_off)
    else data
  in
  match region_of t task with
  | None ->
      let vm = Kernel.vm t.kernel in
      Hypervisor.Vm.write vm ~pt:Hypervisor.Vm.no_pt ~addr:(t.bar_gpa + table_off) data
  | Some (mgr, rid) ->
      let base, _ = Hypervisor.Region.dev_slice mgr rid in
      Hypervisor.Region.hyp_write_dev_mem mgr ~rid ~spa:(base + table_off) ~data

let bind_gtt t task bo =
  match bo.storage with
  | Vram_bo _ -> ()
  | Gtt g ->
      if g.dma = None then begin
        let dma = t.next_dma in
        t.next_dma <- t.next_dma + (bo.pages * page_size);
        (match region_of t task with
        | None ->
            Array.iteri
              (fun i spa ->
                Memory.Iommu.map t.iommu ~dma:(dma + (i * page_size)) ~spa
                  ~perms:Memory.Perm.rw ~region:None)
              g.spas
        | Some (mgr, rid) ->
            Array.iteri
              (fun i spa ->
                try
                  Hypervisor.Region.request_iommu_map mgr ~rid
                    ~dma:(dma + (i * page_size)) ~spa ~perms:Memory.Perm.rw
                with Hypervisor.Region.Isolation_violation m ->
                  Errno.fail Errno.EFAULT m)
              g.spas);
        write_gart_entries t task ~dma ~spas:g.spas;
        g.dma <- Some dma
      end

let location_of t task bo =
  bind_gtt t task bo;
  match bo.storage with
  | Gtt { dma = Some dma; _ } -> Gpu_hw.Sys_dma dma
  | Gtt { dma = None; _ } -> assert false
  | Vram_bo { offset } -> Gpu_hw.Vram offset

let find_bo t (file : Defs.file) handle =
  match Hashtbl.find_opt t.bos (file.Defs.file_id, handle) with
  | Some bo -> bo
  | None -> Errno.fail Errno.EINVAL "no such buffer object"

(** VRAM offsets: a global allocator normally; under isolation, one per
    region slice (past its GART table), so guests partition the device
    memory — the §4.2 consequence that "benchmarks with data isolation
    can use a maximum of 512MB" in the paper's setup. *)
let alloc_vram_offset t task pages =
  match region_of t task with
  | None -> Memory.Allocator.alloc_range t.vram_alloc pages
  | Some (mgr, rid) ->
      let alloc =
        match Hashtbl.find_opt t.region_vram_allocs rid with
        | Some a -> a
        | None ->
            let base, slice_pages = Hypervisor.Region.dev_slice mgr rid in
            let usable_base =
              base - Gpu_hw.vram_base t.gpu + (gart_table_pages * page_size)
            in
            let a =
              Memory.Allocator.create ~base:usable_base
                ~size:((slice_pages - gart_table_pages) * page_size)
            in
            Hashtbl.replace t.region_vram_allocs rid a;
            a
      in
      (try Memory.Allocator.alloc_range alloc pages
       with Out_of_memory -> Errno.fail Errno.ENOSPC "region VRAM slice exhausted")

(* ------------------------------------------------------------------ *)
(* ioctl handlers                                                      *)
(* ------------------------------------------------------------------ *)

let arg_addr arg = Int64.to_int arg

let handle_gem_create t task file ~arg =
  let uaddr = arg_addr arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:Radeon_ioctl.gem_create_size in
  let size =
    Int64.to_int (Bytes.get_int64_le data Radeon_ioctl.gem_create_off_size)
  in
  let domain =
    Int32.to_int (Bytes.get_int32_le data Radeon_ioctl.gem_create_off_domain)
  in
  if size <= 0 then Errno.fail Errno.EINVAL "gem_create: bad size";
  let pages = Memory.Addr.pages_spanned ~addr:0 ~len:size in
  let storage =
    if domain = Radeon_ioctl.domain_vram then
      Vram_bo { offset = alloc_vram_offset t task pages }
    else begin
      let gpas, spas = alloc_gtt_pages t task pages in
      Gtt { gpas; spas; dma = None }
    end
  in
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  let bo = { size; pages; storage } in
  Hashtbl.replace t.bos (file.Defs.file_id, handle) bo;
  (* write the handle back into the user struct *)
  Bytes.set_int32_le data Radeon_ioctl.gem_create_off_handle (Int32.of_int handle);
  Uaccess.copy_to_user task ~uaddr data;
  0

let handle_gem_mmap t task file ~arg =
  let uaddr = arg_addr arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:Radeon_ioctl.gem_mmap_size in
  let handle =
    Int32.to_int (Bytes.get_int32_le data Radeon_ioctl.gem_mmap_off_handle)
  in
  let bo = find_bo t file handle in
  (* fake mmap offset identifying the bo, like GEM's mmap cookie *)
  let pgoff = handle lsl 8 in
  Hashtbl.replace t.mmap_index pgoff (file.Defs.file_id, handle);
  Bytes.set_int64_le data Radeon_ioctl.gem_mmap_off_size (Int64.of_int bo.size);
  Bytes.set_int64_le data Radeon_ioctl.gem_mmap_off_addr
    (Int64.of_int (pgoff * page_size));
  Uaccess.copy_to_user task ~uaddr data;
  0

let handle_gem_close t task file ~arg =
  let uaddr = arg_addr arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:Radeon_ioctl.gem_close_size in
  let handle = Int32.to_int (Bytes.get_int32_le data 0) in
  let bo = find_bo t file handle in
  (match bo.storage with
  | Gtt g ->
      (match g.dma with
      | Some dma -> (
          match region_of t task with
          | None ->
              Array.iteri
                (fun i _ -> Memory.Iommu.unmap t.iommu ~dma:(dma + (i * page_size)))
                g.spas
          | Some (mgr, rid) ->
              Array.iteri
                (fun i _ ->
                  Hypervisor.Region.request_iommu_unmap mgr ~rid
                    ~dma:(dma + (i * page_size)))
                g.spas)
      | None -> ());
      (match region_of t task with
      | None ->
          Array.iter (Hypervisor.Vm.free_gpa_page (Kernel.vm t.kernel)) g.gpas
      | Some (mgr, rid) ->
          Array.iter
            (fun spa -> Hypervisor.Region.free_protected_page mgr ~rid ~spa)
            g.spas)
  | Vram_bo { offset } -> (
      match region_of t task with
      | None -> Memory.Allocator.free_page t.vram_alloc offset
      | Some (_, rid) -> (
          match Hashtbl.find_opt t.region_vram_allocs rid with
          | Some a -> Memory.Allocator.free_page a offset
          | None -> ())));
  Hashtbl.remove t.bos (file.Defs.file_id, handle);
  Hashtbl.remove t.mmap_index (handle lsl 8);
  0

(** Parse the IB chunk into GPU commands, resolving reloc indices
    through the RELOCS chunk. *)
let parse_ib t task file ~ib ~relocs =
  let n = Bytes.length ib / 4 in
  (* every dword index comes from guest-controlled packet headers
     (including ntex below, which scales a read run): reads past the
     chunk are malformed submissions, not programming errors *)
  let u32 i =
    if i < 0 || i >= n then Errno.fail Errno.EINVAL "truncated IB packet";
    Int32.to_int (Bytes.get_int32_le ib (i * 4)) land 0xffffffff
  in
  let reloc_bo idx =
    if idx < 0 || idx >= Array.length relocs then
      Errno.fail Errno.EINVAL "reloc index out of range";
    find_bo t file relocs.(idx)
  in
  let cmds = ref [] in
  let pos = ref 0 in
  while !pos < n do
    let op = u32 !pos in
    if op = Radeon_ioctl.pkt_draw then begin
      let vertices = u32 (!pos + 1)
      and width = u32 (!pos + 2)
      and height = u32 (!pos + 3)
      and ntex = u32 (!pos + 4) in
      (* texture relocs must fit inside the chunk; checking before
         List.init keeps a hostile count from sizing the list *)
      if ntex > n - !pos - 5 then Errno.fail Errno.EINVAL "truncated IB packet";
      let textures =
        List.init ntex (fun i -> location_of t task (reloc_bo (u32 (!pos + 5 + i))))
      in
      cmds := Gpu_hw.Draw { vertices; width; height; textures } :: !cmds;
      pos := !pos + 5 + ntex
    end
    else if op = Radeon_ioctl.pkt_compute then begin
      let order = u32 (!pos + 1) in
      let a = location_of t task (reloc_bo (u32 (!pos + 2)))
      and b = location_of t task (reloc_bo (u32 (!pos + 3)))
      and out = location_of t task (reloc_bo (u32 (!pos + 4))) in
      let full = u32 (!pos + 5) <> 0 in
      cmds := Gpu_hw.Compute_matmul { order; a; b; out; full } :: !cmds;
      pos := !pos + 6
    end
    else if op = Radeon_ioctl.pkt_blit then begin
      let src = location_of t task (reloc_bo (u32 (!pos + 1)))
      and dst = location_of t task (reloc_bo (u32 (!pos + 2))) in
      let len = u32 (!pos + 3) in
      cmds := Gpu_hw.Blit { src; dst; len } :: !cmds;
      pos := !pos + 4
    end
    else if op = Radeon_ioctl.pkt_reg_write then begin
      (* The driver forwards raw register writes from the command
         stream unchecked — the §8 attack surface.  With the
         command-streamer protection extension enabled, writes to
         dangerous registers are rejected before reaching the GPU. *)
      let reg = u32 (!pos + 1) and value = u32 (!pos + 2) in
      if t.protect_command_streamer && reg = Gpu_hw.reg_clock_ctl then
        Errno.fail Errno.EACCES "protected register";
      cmds := Gpu_hw.Reg_write { reg; value } :: !cmds;
      pos := !pos + 3
    end
    else Errno.fail Errno.EINVAL "bad IB packet"
  done;
  List.rev !cmds

(** The CS ioctl: the canonical nested-copy command (§4.1).  The main
    struct holds a pointer to an array of chunk pointers; each chunk
    header holds a pointer to chunk data — three levels of
    copy_from_user whose arguments come from previous copies. *)
let handle_cs t task file ~arg =
  let uaddr = arg_addr arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:Radeon_ioctl.cs_size in
  let num_chunks =
    Int32.to_int (Bytes.get_int32_le data Radeon_ioctl.cs_off_num_chunks)
  in
  let chunks_ptr =
    Int64.to_int (Bytes.get_int64_le data Radeon_ioctl.cs_off_chunks_ptr)
  in
  if num_chunks <= 0 || num_chunks > 16 then
    Errno.fail Errno.EINVAL "cs: bad chunk count";
  (* nested copy #1: the array of chunk-header pointers *)
  let ptr_array =
    Uaccess.copy_from_user task ~uaddr:chunks_ptr ~len:(num_chunks * 8)
  in
  let ib = ref Bytes.empty and relocs = ref [||] in
  for i = 0 to num_chunks - 1 do
    let hdr_ptr = Int64.to_int (Bytes.get_int64_le ptr_array (i * 8)) in
    (* nested copy #2: the chunk header *)
    let hdr =
      Uaccess.copy_from_user task ~uaddr:hdr_ptr
        ~len:Radeon_ioctl.cs_chunk_header_size
    in
    let chunk_id =
      Int32.to_int (Bytes.get_int32_le hdr Radeon_ioctl.chunk_off_id)
    in
    let length_dw =
      Int32.to_int (Bytes.get_int32_le hdr Radeon_ioctl.chunk_off_length_dw)
    in
    let data_ptr = Int64.to_int (Bytes.get_int64_le hdr Radeon_ioctl.chunk_off_data) in
    if length_dw < 0 || length_dw > 16384 then
      Errno.fail Errno.EINVAL "cs: chunk too large";
    (* nested copy #3: the chunk payload *)
    let payload = Uaccess.copy_from_user task ~uaddr:data_ptr ~len:(length_dw * 4) in
    if chunk_id = Radeon_ioctl.chunk_id_ib then ib := payload
    else if chunk_id = Radeon_ioctl.chunk_id_relocs then
      relocs :=
        Array.init length_dw (fun j ->
            Int32.to_int (Bytes.get_int32_le payload (j * 4)))
    else Errno.fail Errno.EINVAL "cs: unknown chunk id"
  done;
  let cmds = parse_ib t task file ~ib:!ib ~relocs:!relocs in
  (* under data isolation, make the device work on this guest's region *)
  (match region_of t task with
  | Some (mgr, rid) ->
      let touched = Hypervisor.Region.switch_region mgr ~rid in
      if touched > 0 then begin
        t.stats_region_switches <- t.stats_region_switches + 1;
        Kernel.charge t.kernel (float_of_int touched *. t.region_switch_cost_us)
      end
  | None -> ());
  (* tag submissions with the client so fair scheduling (§8) can
     interleave guests at command granularity *)
  let client = match client_of task with Local -> 0 | Guest id -> id + 1 in
  List.iter (Gpu_hw.submit ~client t.gpu) cmds;
  t.emitted_fence <- t.emitted_fence + 1;
  let fence = t.emitted_fence in
  Gpu_hw.submit ~client t.gpu (Gpu_hw.Fence fence);
  (* report the fence back through the struct *)
  Bytes.set_int64_le data Radeon_ioctl.cs_off_fence (Int64.of_int fence);
  Uaccess.copy_to_user task ~uaddr data;
  0

let fence_complete t fence =
  fence <= t.completed_fence || Hashtbl.mem t.completed_set fence

(** Recover a broken GPU (§8's suggested mitigation): reset the core,
    abandon in-flight work, and complete outstanding fences with an
    error so waiters do not hang — the lightweight analogue of
    restarting the driver VM. *)
let recover t =
  Gpu_hw.reset t.gpu;
  t.stats_recoveries <- t.stats_recoveries + 1;
  t.completed_fence <- t.emitted_fence;
  Hashtbl.reset t.completed_set;
  Wait_queue.wake_all t.fence_wq

(** Fence wait with an optional watchdog: a GPU that stops retiring
    fences (wedged by a malicious command stream) is detected and
    reset.  The timeout must exceed the longest legitimate command
    (a big GPGPU kernel can run for many seconds), so the watchdog is
    opt-in via {!set_watchdog_timeout}. *)
let wait_for_fence t fence =
  if Float.is_finite t.watchdog_timeout_us then begin
    let deadline_missed = ref false in
    while (not (fence_complete t fence)) && not !deadline_missed do
      if not (Wait_queue.sleep_timeout t.fence_wq ~timeout:t.watchdog_timeout_us)
      then deadline_missed := true
    done;
    if !deadline_missed && not (fence_complete t fence) then begin
      recover t;
      Errno.fail Errno.EIO "GPU hung; device was reset"
    end
  end
  else
    while not (fence_complete t fence) do
      Wait_queue.sleep t.fence_wq
    done

let handle_wait_idle t task ~arg =
  let uaddr = arg_addr arg in
  let (_ : bytes) =
    Uaccess.copy_from_user task ~uaddr ~len:Radeon_ioctl.gem_wait_idle_size
  in
  wait_for_fence t t.emitted_fence;
  0

(** INFO: reads a request struct, then writes a u64 result at the
    user pointer found *inside* that struct — the second nested
    pattern the analyzer must extract (§4.1). *)
let handle_info t task ~arg =
  let uaddr = arg_addr arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:Radeon_ioctl.info_size in
  let request =
    Int32.to_int (Bytes.get_int32_le data Radeon_ioctl.info_off_request)
  in
  let value_ptr =
    Int64.to_int (Bytes.get_int64_le data Radeon_ioctl.info_off_value_ptr)
  in
  let value =
    if request = Radeon_ioctl.info_device_id then 0x6779 (* HD 6450 *)
    else if request = Radeon_ioctl.info_num_gb_pipes then 2
    else if request = Radeon_ioctl.info_accel_working then 1
    else if request = Radeon_ioctl.info_vram_usage then Gpu_hw.vram_bytes t.gpu
    else Errno.fail Errno.EINVAL "info: unknown request"
  in
  let out = Bytes.create 8 in
  Bytes.set_int64_le out 0 (Int64.of_int value);
  Uaccess.copy_to_user task ~uaddr:value_ptr out;
  0

(** Software-emulated VSync (the §5.3 extension): data isolation
    disables the hardware VSync interrupt, so the driver paces frames
    with a 60 Hz timer instead.  Blocks until the next frame boundary. *)
let handle_wait_vsync t () =
  let interval = 1_000_000. /. 60. in
  let now = Sim.Engine.now (Kernel.engine t.kernel) in
  let next = (Float.of_int (int_of_float (now /. interval)) +. 1.) *. interval in
  Sim.Engine.wait (next -. now);
  0

let handle_set_tiling _t task ~arg =
  (* accepts and ignores tiling parameters; exercises the plain
     macro-decodable _IOWR path *)
  let uaddr = arg_addr arg in
  let data = Uaccess.copy_from_user task ~uaddr ~len:Radeon_ioctl.set_tiling_size in
  Uaccess.copy_to_user task ~uaddr data;
  0

(* ------------------------------------------------------------------ *)
(* mmap / fault                                                        *)
(* ------------------------------------------------------------------ *)

let bo_of_vma t (vma : Defs.vma) =
  match Hashtbl.find_opt t.mmap_index vma.Defs.vma_pgoff with
  | Some key -> (
      match Hashtbl.find_opt t.bos key with
      | Some bo -> bo
      | None -> Errno.fail Errno.EINVAL "stale mmap cookie")
  | None -> Errno.fail Errno.EINVAL "mmap offset does not name a buffer object"

(** Map one page of a bo into the faulting process.  GTT pages map by
    their driver gpa; VRAM pages map through the BAR. *)
let map_bo_page t task bo ~gva ~page_index =
  if page_index < 0 || page_index >= bo.pages then
    Errno.fail Errno.EFAULT "fault beyond buffer object";
  let page_gpa =
    match bo.storage with
    | Gtt { gpas; _ } -> gpas.(page_index)
    | Vram_bo { offset } -> t.bar_gpa + offset + (page_index * page_size)
  in
  Uaccess.insert_pfn task ~gva ~page_gpa ~perms:Memory.Perm.rw

let handle_mmap _t _task _file (_vma : Defs.vma) =
  (* lazy: pages arrive via the fault handler, like the real driver's
     TTM fault path *)
  ()

let handle_fault t task file (vma : Defs.vma) ~gva =
  ignore file;
  let bo = bo_of_vma t vma in
  let page_index = (gva - vma.Defs.vma_start) / page_size in
  map_bo_page t task bo ~gva ~page_index

(* ------------------------------------------------------------------ *)
(* file_ops                                                            *)
(* ------------------------------------------------------------------ *)

let release t _task (file : Defs.file) =
  (* drop every bo owned by this open, like DRM file teardown *)
  let owned =
    Hashtbl.fold
      (fun (fid, handle) _ acc ->
        if fid = file.Defs.file_id then handle :: acc else acc)
      t.bos []
  in
  List.iter
    (fun handle ->
      Hashtbl.remove t.bos (file.Defs.file_id, handle);
      Hashtbl.remove t.mmap_index (handle lsl 8))
    owned

let file_ops t =
  {
    Defs.default_ops with
    Defs.fop_kinds =
      [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Ioctl; Os_flavor.Mmap;
        Os_flavor.Fault; Os_flavor.Poll ];
    fop_ioctl =
      (fun task file ~cmd ~arg ->
        if cmd = Radeon_ioctl.gem_create then handle_gem_create t task file ~arg
        else if cmd = Radeon_ioctl.gem_mmap then handle_gem_mmap t task file ~arg
        else if cmd = Radeon_ioctl.gem_close then handle_gem_close t task file ~arg
        else if cmd = Radeon_ioctl.cs then handle_cs t task file ~arg
        else if cmd = Radeon_ioctl.gem_wait_idle then handle_wait_idle t task ~arg
        else if cmd = Radeon_ioctl.info then handle_info t task ~arg
        else if cmd = Radeon_ioctl.set_tiling then handle_set_tiling t task ~arg
        else if cmd = Radeon_ioctl.wait_vsync then handle_wait_vsync t ()
        else Errno.fail Errno.ENOTTY "unknown radeon ioctl");
    fop_mmap = (fun task file vma -> handle_mmap t task file vma);
    fop_fault = (fun task file vma ~gva -> handle_fault t task file vma ~gva);
    fop_release = (fun task file -> release t task file);
    fop_poll =
      (fun _ _ ~want_in:_ ~want_out:_ ->
        { Defs.pollin = true; pollout = true; poll_wq = None });
  }

(** Register the GPU as /dev/dri/card0 in the driver kernel. *)
let register t =
  let dev =
    Defs.make_device ~path:"/dev/dri/card0" ~cls:"gpu" ~driver:"radeon"
      (file_ops t)
  in
  Devfs.register (Kernel.devfs t.kernel) dev;
  dev
