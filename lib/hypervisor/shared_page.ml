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
  read_u64 : offset:int -> int64;
  write_u64 : offset:int -> int64 -> unit;
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

(** A [view] for a VM that has the region mapped: every access performs
    the EPT-checked CPU access of that VM (crossing page boundaries
    splits into per-page accesses, as the CPU would). *)
let view_of t vm =
  let gpa =
    match List.assoc_opt vm.Vm.id t.mappings with
    | Some gpa -> gpa
    | None -> invalid_arg "Shared_page.view_of: not mapped in this VM"
  in
  let read_into ~offset ~len dst =
    check_bounds t ~offset ~len;
    Vm.read_gpa_into vm ~gpa:(gpa + offset) ~dst ~dst_off:0 ~len
  and write ~offset data =
    check_bounds t ~offset ~len:(Bytes.length data);
    Vm.write_gpa vm ~gpa:(gpa + offset) data
  in
  (* Scalars go through the VM's direct accessors (one TLB-cached
     translation, no intermediate buffer) — the doorbell/slot-state
     polls of the transport hammer these. *)
  {
    read_into;
    write;
    read_u32 =
      (fun ~offset ->
        check_bounds t ~offset ~len:4;
        Vm.read_gpa_u32 vm ~gpa:(gpa + offset));
    write_u32 =
      (fun ~offset v ->
        check_bounds t ~offset ~len:4;
        Vm.write_gpa_u32 vm ~gpa:(gpa + offset) v);
    read_u64 =
      (fun ~offset ->
        check_bounds t ~offset ~len:8;
        Vm.read_gpa_u64 vm ~gpa:(gpa + offset));
    write_u64 =
      (fun ~offset v ->
        check_bounds t ~offset ~len:8;
        Vm.write_gpa_u64 vm ~gpa:(gpa + offset) v);
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
    read_u64 = (fun ~offset -> Memory.Phys_mem.read_u64 t.phys ~spa:(base + offset));
    write_u64 = (fun ~offset v -> Memory.Phys_mem.write_u64 t.phys ~spa:(base + offset) v);
  }
