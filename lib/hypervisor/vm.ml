(** A virtual machine, as the hypervisor sees it.

    A VM owns an EPT (maintained by the hypervisor), a guest-physical
    address-space allocator (what the guest kernel believes is its RAM)
    and, for a driver VM, the set of devices assigned to it.  The
    guest kernel itself lives in [lib/oskit] and is attached by the
    machine assembly code; the hypervisor never depends on it.

    Every CPU memory access funnels through {!translate_gva} /
    {!translate_gpa}, which consult the VM's software TLB before
    walking the radix tables.  A TLB hit still checks the cached leaf
    permissions and the source tables' generation counters, so a
    revoked or re-permissioned mapping can never be reached through a
    stale entry — §4.1 fault isolation holds with the cache on. *)

type kind = Guest | Driver

type t = {
  id : int;
  name : string;
  kind : kind;
  phys : Memory.Phys_mem.t;
  ept : Memory.Ept.t;
  tlb : Memory.Tlb.t;
  gpa_alloc : Memory.Allocator.t;
  mutable alive : bool; (* cleared when the VM crashes or is killed *)
}

let id t = t.id
let name t = t.name
let kind t = t.kind
let ept t = t.ept
let phys t = t.phys
let tlb t = t.tlb
let alive t = t.alive
let flush_tlb t = Memory.Tlb.flush t.tlb

(** EPT translation with TLB caching.  gpa-space entries live in
    {!Memory.Tlb.gpa_space} with a pinned pt generation of 0.  A miss
    (or a stale or denied hit) re-walks, so callers see exactly the
    faults the walk raises ({!Memory.Fault.Ept_violation} /
    {!Memory.Fault.Page_fault}). *)
let translate_gpa t ~gpa ~access =
  let vfn = Memory.Addr.pfn gpa in
  let ept_gen = Memory.Ept.generation t.ept in
  let spn =
    Memory.Tlb.lookup t.tlb ~space:Memory.Tlb.gpa_space ~vfn ~access ~pt_gen:0
      ~ept_gen
  in
  if spn <> Memory.Tlb.miss then Memory.Addr.of_pfn spn lor Memory.Addr.offset gpa
  else begin
    let spa, ept_perms = Memory.Ept.translate_leaf t.ept ~gpa ~access in
    Memory.Tlb.count_walks t.tlb 1;
    Memory.Tlb.install t.tlb
      {
        Memory.Tlb.space = Memory.Tlb.gpa_space;
        vfn;
        spn = Memory.Addr.pfn spa;
        pt_perms = Memory.Perm.rwx;
        ept_perms;
        pt_gen = 0;
        ept_gen;
      };
    spa
  end

(* Only [Shared_page] views call this. *)
let frame_of_gpa t ~gpa ~access =
  Memory.Phys_mem.ram_frame t.phys
    ~spn:(Memory.Addr.pfn (translate_gpa t ~gpa ~access))
    ~access

(** Combined guest-PT + EPT translation with TLB caching, keyed by the
    process's address-space id. *)
let translate_gva t ~pt ~gva ~access =
  let vfn = Memory.Addr.pfn gva in
  let space = Memory.Guest_pt.id pt in
  let pt_gen = Memory.Guest_pt.generation pt in
  let ept_gen = Memory.Ept.generation t.ept in
  let spn = Memory.Tlb.lookup t.tlb ~space ~vfn ~access ~pt_gen ~ept_gen in
  if spn <> Memory.Tlb.miss then Memory.Addr.of_pfn spn lor Memory.Addr.offset gva
  else begin
    let gpa, pt_perms = Memory.Guest_pt.translate_leaf pt ~gva ~access in
    let spa, ept_perms = Memory.Ept.translate_leaf t.ept ~gpa ~access in
    Memory.Tlb.count_walks t.tlb 2;
    Memory.Tlb.install t.tlb
      {
        Memory.Tlb.space;
        vfn;
        spn = Memory.Addr.pfn spa;
        pt_perms;
        ept_perms;
        pt_gen;
        ept_gen;
      };
    spa
  end

(** CPU access to guest-physical memory from inside the VM: the
    hardware walks the EPT with permission checks, so reads of
    protected-region pages raise {!Memory.Fault.Ept_violation} exactly
    as §4.2 requires. *)
let read_gpa_into t ~gpa ~dst ~dst_off ~len =
  let pos = ref dst_off in
  Memory.Addr.iter_page_chunks ~addr:gpa ~len (fun addr chunk ->
      let spa = translate_gpa t ~gpa:addr ~access:Memory.Perm.Read in
      Memory.Phys_mem.read_into t.phys ~spa ~dst ~dst_off:!pos ~len:chunk;
      pos := !pos + chunk)

let write_gpa_from t ~gpa ~src ~src_off ~len =
  let pos = ref src_off in
  Memory.Addr.iter_page_chunks ~addr:gpa ~len (fun addr chunk ->
      let spa = translate_gpa t ~gpa:addr ~access:Memory.Perm.Write in
      Memory.Phys_mem.write_from t.phys ~spa ~src ~src_off:!pos ~len:chunk;
      pos := !pos + chunk)

let read_gpa t ~gpa ~len =
  let out = Bytes.create len in
  read_gpa_into t ~gpa ~dst:out ~dst_off:0 ~len;
  out

let write_gpa t ~gpa data =
  write_gpa_from t ~gpa ~src:data ~src_off:0 ~len:(Bytes.length data)

(** Access through a process's guest page table: two-level translation
    (guest PT then EPT), the path every simulated application load and
    store takes.  A page-granular gva chunk maps into a single frame,
    so each chunk is one translation plus one blit. *)
let read_gva_into t ~pt ~gva ~dst ~dst_off ~len =
  let pos = ref dst_off in
  Memory.Addr.iter_page_chunks ~addr:gva ~len (fun addr chunk ->
      let spa = translate_gva t ~pt ~gva:addr ~access:Memory.Perm.Read in
      Memory.Phys_mem.read_into t.phys ~spa ~dst ~dst_off:!pos ~len:chunk;
      pos := !pos + chunk)

let write_gva_from t ~pt ~gva ~src ~src_off ~len =
  let pos = ref src_off in
  Memory.Addr.iter_page_chunks ~addr:gva ~len (fun addr chunk ->
      let spa = translate_gva t ~pt ~gva:addr ~access:Memory.Perm.Write in
      Memory.Phys_mem.write_from t.phys ~spa ~src ~src_off:!pos ~len:chunk;
      pos := !pos + chunk)

let read_gva t ~pt ~gva ~len =
  let out = Bytes.create len in
  read_gva_into t ~pt ~gva ~dst:out ~dst_off:0 ~len;
  out

let write_gva t ~pt ~gva data =
  write_gva_from t ~pt ~gva ~src:data ~src_off:0 ~len:(Bytes.length data)

(* Scalar accessors: one TLB-cached translation plus a direct frame
   access when the scalar sits inside one page (the overwhelmingly
   common case); page-straddling scalars fall back to the blit path. *)

let[@inline] fits_in_page addr width =
  Memory.Addr.offset addr + width <= Memory.Addr.page_size

let read_gpa_u32 t ~gpa =
  if fits_in_page gpa 4 then
    Memory.Phys_mem.read_u32 t.phys
      ~spa:(translate_gpa t ~gpa ~access:Memory.Perm.Read)
  else Int32.to_int (Bytes.get_int32_le (read_gpa t ~gpa ~len:4) 0) land 0xffffffff

let write_gpa_u32 t ~gpa v =
  if fits_in_page gpa 4 then
    Memory.Phys_mem.write_u32 t.phys
      ~spa:(translate_gpa t ~gpa ~access:Memory.Perm.Write)
      v
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    write_gpa t ~gpa b
  end

let read_gpa_u64 t ~gpa =
  if fits_in_page gpa 8 then
    Memory.Phys_mem.read_u64 t.phys
      ~spa:(translate_gpa t ~gpa ~access:Memory.Perm.Read)
  else Bytes.get_int64_le (read_gpa t ~gpa ~len:8) 0

let write_gpa_u64 t ~gpa v =
  if fits_in_page gpa 8 then
    Memory.Phys_mem.write_u64 t.phys
      ~spa:(translate_gpa t ~gpa ~access:Memory.Perm.Write)
      v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_gpa t ~gpa b
  end

let read_gva_u32 t ~pt ~gva =
  if fits_in_page gva 4 then
    Memory.Phys_mem.read_u32 t.phys
      ~spa:(translate_gva t ~pt ~gva ~access:Memory.Perm.Read)
  else
    Int32.to_int (Bytes.get_int32_le (read_gva t ~pt ~gva ~len:4) 0)
    land 0xffffffff

let write_gva_u32 t ~pt ~gva v =
  if fits_in_page gva 4 then
    Memory.Phys_mem.write_u32 t.phys
      ~spa:(translate_gva t ~pt ~gva ~access:Memory.Perm.Write)
      v
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    write_gva t ~pt ~gva b
  end

let read_gva_u64 t ~pt ~gva =
  if fits_in_page gva 8 then
    Memory.Phys_mem.read_u64 t.phys
      ~spa:(translate_gva t ~pt ~gva ~access:Memory.Perm.Read)
  else Bytes.get_int64_le (read_gva t ~pt ~gva ~len:8) 0

let write_gva_u64 t ~pt ~gva v =
  if fits_in_page gva 8 then
    Memory.Phys_mem.write_u64 t.phys
      ~spa:(translate_gva t ~pt ~gva ~access:Memory.Perm.Write)
      v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_gva t ~pt ~gva b
  end

(** Allocate a fresh page of guest-"RAM": takes a guest-physical page
    from the VM's allocator; it is already EPT-backed (the hypervisor
    populated the VM's whole RAM at boot). *)
let alloc_gpa_page t = Memory.Allocator.alloc_page t.gpa_alloc
let free_gpa_page t gpa = Memory.Allocator.free_page t.gpa_alloc gpa
