(** A physically-backed region shared between VMs (and optionally the
    hypervisor).

    The CVD frontend/backend communicate through such regions (§5.1):
    the frontend serialises file-operation arguments into one, rings a
    doorbell, and the backend deserialises on the other side.  Each
    side accesses the region through its own EPT mapping, so
    permissions apply — a shared page inside a protected region
    genuinely becomes unreadable to the driver VM.

    A region is one or more physically contiguous frames mapped at a
    contiguous guest-physical range in every VM that maps it; the
    descriptor-ring transport uses a control page followed by slot
    pages. *)

type t = {
  phys : Memory.Phys_mem.t;
  base_spn : int; (* first of [pages] contiguous frames *)
  pages : int;
  mutable mappings : (int * int) list; (* vm id, base gpa *)
}

type view = {
  read_into : offset:int -> len:int -> bytes -> unit;
  write : offset:int -> bytes -> unit;
  read_u32 : offset:int -> int;
  write_u32 : offset:int -> int -> unit;
}

let allocate ?(pages = 1) phys =
  if pages < 1 then invalid_arg "Shared_page.allocate: pages < 1";
  let base_spn =
    if pages = 1 then Memory.Phys_mem.alloc_frame phys
    else Memory.Phys_mem.alloc_frames phys pages
  in
  { phys; base_spn; pages; mappings = [] }

(** Map the region into [vm] at a fresh contiguous guest-physical
    range; returns its base address. *)
let map_into t vm ~perms =
  let gpa =
    if t.pages = 1 then Memory.Allocator.reserve_unused vm.Vm.gpa_alloc
    else Memory.Allocator.reserve_unused_range vm.Vm.gpa_alloc t.pages
  in
  for i = 0 to t.pages - 1 do
    Memory.Ept.map vm.Vm.ept
      ~gpa:(gpa + (i * Memory.Addr.page_size))
      ~spa:(Memory.Addr.of_pfn (t.base_spn + i))
      ~perms
  done;
  t.mappings <- (vm.Vm.id, gpa) :: t.mappings;
  gpa

let check_bounds t ~offset ~len =
  if offset < 0 || len < 0 || offset + len > t.pages * Memory.Addr.page_size then
    invalid_arg "Shared_page: access outside region"

let no_frame = Memory.Phys_mem.no_frame

(* A region offset's page and in-page offset.  Every view access
   computes them, and under the dev profile's -opaque a call to
   [Addr.pfn] or [Addr.offset] is never inlined. *)
let[@inline] page_of offset = offset lsr Memory.Addr.page_shift
let[@inline] in_page offset = offset land Memory.Addr.page_mask

(* The translations a view holds: per page and access kind, the RAM
   frame last found, and the EPT generation and TLB epoch all of them
   were found under.  While both read the same, the page's TLB entry is
   unchanged (entries leave only by a flush, every EPT change bumps the
   generation, and a RAM frame's bytes are never replaced), so a lookup
   would hit with that very frame.  The shared zero page a read of a
   never-written frame finds is used for that access only, never held:
   the frame gets bytes of its own on its first write, by any VM. *)
type held = {
  region : t;
  vm : Vm.t;
  gpa : int; (* the region's base in [vm] *)
  frames : bytes array; (* by 2 * page + kind (0 read, 1 write), or [no_frame] *)
  mutable gen : int;
  mutable epoch : int;
}

(* Bounds-check [len] bytes at [offset]; return the frame to access
   them in directly, counting the TLB hit its lookup would have made,
   or [no_frame] for the per-access path (bytes straddling a page, or
   an MMIO page).  A missing or stale frame is resolved by the ordinary
   translation at the accessed address, which may fault, and may flush
   the TLB as it fills it. *)
let frame h ~offset ~len ~kind =
  check_bounds h.region ~offset ~len;
  if len = 0 || in_page offset + len > Memory.Addr.page_size then no_frame
  else begin
    let i = (2 * page_of offset) + kind in
    let f = h.frames.(i) in
    if
      f != no_frame
      && h.gen = Memory.Ept.generation h.vm.Vm.ept
      && h.epoch = Memory.Tlb.epoch h.vm.Vm.tlb
    then begin
      Memory.Tlb.note_hit h.vm.Vm.tlb;
      f
    end
    else begin
      let access = if kind = 0 then Memory.Perm.Read else Memory.Perm.Write in
      let f = Vm.frame_of_gpa h.vm ~gpa:(h.gpa + offset) ~access in
      let gen = Memory.Ept.generation h.vm.Vm.ept
      and epoch = Memory.Tlb.epoch h.vm.Vm.tlb in
      if gen <> h.gen || epoch <> h.epoch then begin
        Array.fill h.frames 0 (Array.length h.frames) no_frame;
        h.gen <- gen;
        h.epoch <- epoch
      end;
      if not (Memory.Phys_mem.is_zero_page f) then h.frames.(i) <- f;
      f
    end
  end

(** A [view] for a VM that has the region mapped: every access performs
    the EPT-checked CPU access of that VM (crossing page boundaries
    splits into per-page accesses, as the CPU would), through the
    frames it holds where it can.  An access to an MMIO page, which a
    region's own frames never are (only a remapped leaf could be), is
    translated twice: once to find it is not RAM, once per access. *)
let view_of t vm =
  let gpa =
    match List.assoc_opt vm.Vm.id t.mappings with
    | Some gpa -> gpa
    | None -> invalid_arg "Shared_page.view_of: not mapped in this VM"
  in
  let frames = Array.make (2 * t.pages) no_frame in
  let h = { region = t; vm; gpa; frames; gen = -1; epoch = -1 } in
  {
    read_into =
      (fun ~offset ~len dst ->
        let f = frame h ~offset ~len ~kind:0 in
        if f != no_frame then Bytes.blit f (in_page offset) dst 0 len
        else Vm.read_into h.vm ~pt:Vm.no_pt ~addr:(h.gpa + offset) ~dst ~dst_off:0 ~len);
    write =
      (fun ~offset data ->
        let len = Bytes.length data in
        let f = frame h ~offset ~len ~kind:1 in
        if f != no_frame then Bytes.blit data 0 f (in_page offset) len
        else Vm.write h.vm ~pt:Vm.no_pt ~addr:(h.gpa + offset) data);
    read_u32 =
      (fun ~offset ->
        let f = frame h ~offset ~len:4 ~kind:0 in
        if f != no_frame then
          Int32.to_int (Bytes.get_int32_le f (in_page offset)) land 0xffffffff
        else Vm.read_u32 h.vm ~pt:Vm.no_pt ~addr:(h.gpa + offset));
    write_u32 =
      (fun ~offset v ->
        let f = frame h ~offset ~len:4 ~kind:1 in
        if f != no_frame then
          Bytes.set_int32_le f (in_page offset) (Int32.of_int v)
        else Vm.write_u32 h.vm ~pt:Vm.no_pt ~addr:(h.gpa + offset) v);
  }

(** The hypervisor's own view bypasses EPTs: it addresses the frames
    directly (they are the hypervisor's memory, after all; the frames
    are physically contiguous, so linear addressing is exact). *)
let hypervisor_view t =
  let base = Memory.Addr.of_pfn t.base_spn in
  let read_into ~offset ~len dst =
    check_bounds t ~offset ~len;
    Memory.Phys_mem.read_into t.phys ~spa:(base + offset) ~dst ~dst_off:0 ~len
  and write ~offset data =
    check_bounds t ~offset ~len:(Bytes.length data);
    Memory.Phys_mem.write t.phys ~spa:(base + offset) data
  in
  {
    read_into;
    write;
    read_u32 = (fun ~offset -> Memory.Phys_mem.read_u32 t.phys ~spa:(base + offset));
    write_u32 = (fun ~offset v -> Memory.Phys_mem.write_u32 t.phys ~spa:(base + offset) v);
  }
