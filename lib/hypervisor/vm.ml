(** A virtual machine, as the hypervisor sees it.

    A VM owns an EPT (maintained by the hypervisor), a guest-physical
    address-space allocator (what the guest kernel believes is its RAM)
    and, for a driver VM, the set of devices assigned to it.  The
    guest kernel itself lives in [lib/oskit] and is attached by the
    machine assembly code; the hypervisor never depends on it.

    Every CPU memory access funnels through {!translate}, which
    consults the VM's software TLB before walking the radix tables.
    A TLB hit still checks the cached leaf permissions and the source
    tables' generation counters, so a revoked or re-permissioned
    mapping can never be reached through a stale entry — §4.1 fault
    isolation holds with the cache on. *)

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

(** The guest-physical address space, as a page table: an empty one
    numbered {!Memory.Tlb.gpa_space}, which no process table shares
    (kernels number theirs from 1).  Nothing maps into it, so its
    generation stays 0 and it is safe to share across domains. *)
let no_pt = Memory.Guest_pt.create ~id:Memory.Tlb.gpa_space ()

(* A TLB miss: the EPT walk of [gpa], then the fill.  [walks] counts
   the guest-table walk that found [gpa], if any, plus this one. *)
let fill t ~space ~vfn ~pt_perms ~pt_gen ~ept_gen ~gpa ~access ~walks =
  let spa, ept_perms = Memory.Ept.translate_leaf t.ept ~gpa ~access in
  Memory.Tlb.count_walks t.tlb walks;
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

(** The one CPU translation, TLB cached and keyed by [pt]'s id.  Both
    spaces make the same lookup ({!no_pt}'s generation is the pinned 0
    of gpa entries); only a miss (or a stale or denied hit) branches:
    through {!no_pt} it is one EPT walk, with [Perm.rwx] standing for
    the absent guest table, otherwise the guest-table walk and then the
    EPT walk.  Callers see exactly the faults the walks raise
    ({!Memory.Fault.Page_fault} / {!Memory.Fault.Ept_violation}). *)
let translate t ~pt ~addr ~access =
  let vfn = Memory.Addr.pfn addr in
  let space = Memory.Guest_pt.id pt in
  let pt_gen = Memory.Guest_pt.generation pt in
  let ept_gen = Memory.Ept.generation t.ept in
  let spn = Memory.Tlb.lookup t.tlb ~space ~vfn ~access ~pt_gen ~ept_gen in
  if spn <> Memory.Tlb.miss then Memory.Addr.of_pfn spn lor Memory.Addr.offset addr
  else if pt == no_pt then
    fill t ~space ~vfn ~pt_perms:Memory.Perm.rwx ~pt_gen ~ept_gen ~gpa:addr ~access
      ~walks:1
  else begin
    let gpa, pt_perms = Memory.Guest_pt.translate_leaf pt ~gva:addr ~access in
    fill t ~space ~vfn ~pt_perms ~pt_gen ~ept_gen ~gpa ~access ~walks:2
  end

(* Only [Shared_page] views call this. *)
let frame_of_gpa t ~gpa ~access =
  Memory.Phys_mem.ram_frame t.phys
    ~spn:(Memory.Addr.pfn (translate t ~pt:no_pt ~addr:gpa ~access))
    ~access

(* The page loops: contiguity in one space implies nothing about the
   next (§5.2), so each page-sized piece is one translation plus one
   blit.  Plain recursion over the cursor, so an access allocates
   nothing. *)
let rec read_into t ~pt ~addr ~dst ~dst_off ~len =
  if len > 0 then begin
    let room = Memory.Addr.page_size - Memory.Addr.offset addr in
    let chunk = if room < len then room else len in
    let spa = translate t ~pt ~addr ~access:Memory.Perm.Read in
    Memory.Phys_mem.read_into t.phys ~spa ~dst ~dst_off ~len:chunk;
    read_into t ~pt ~addr:(addr + chunk) ~dst ~dst_off:(dst_off + chunk)
      ~len:(len - chunk)
  end

let rec write_from t ~pt ~addr ~src ~src_off ~len =
  if len > 0 then begin
    let room = Memory.Addr.page_size - Memory.Addr.offset addr in
    let chunk = if room < len then room else len in
    let spa = translate t ~pt ~addr ~access:Memory.Perm.Write in
    Memory.Phys_mem.write_from t.phys ~spa ~src ~src_off ~len:chunk;
    write_from t ~pt ~addr:(addr + chunk) ~src ~src_off:(src_off + chunk)
      ~len:(len - chunk)
  end

let read t ~pt ~addr ~len =
  let out = Bytes.create len in
  read_into t ~pt ~addr ~dst:out ~dst_off:0 ~len;
  out

let write t ~pt ~addr data =
  write_from t ~pt ~addr ~src:data ~src_off:0 ~len:(Bytes.length data)

(* Scalar accessors: one TLB-cached translation plus a direct frame
   access when the scalar sits inside one page (the overwhelmingly
   common case); page-straddling scalars fall back to the blit path. *)

let[@inline] fits_in_page addr width =
  Memory.Addr.offset addr + width <= Memory.Addr.page_size

let read_u32 t ~pt ~addr =
  if fits_in_page addr 4 then
    Memory.Phys_mem.read_u32 t.phys ~spa:(translate t ~pt ~addr ~access:Memory.Perm.Read)
  else Int32.to_int (Bytes.get_int32_le (read t ~pt ~addr ~len:4) 0) land 0xffffffff

let write_u32 t ~pt ~addr v =
  if fits_in_page addr 4 then
    Memory.Phys_mem.write_u32 t.phys
      ~spa:(translate t ~pt ~addr ~access:Memory.Perm.Write)
      v
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    write t ~pt ~addr b
  end

let read_u64 t ~pt ~addr =
  if fits_in_page addr 8 then
    Memory.Phys_mem.read_u64 t.phys ~spa:(translate t ~pt ~addr ~access:Memory.Perm.Read)
  else Bytes.get_int64_le (read t ~pt ~addr ~len:8) 0

let write_u64 t ~pt ~addr v =
  if fits_in_page addr 8 then
    Memory.Phys_mem.write_u64 t.phys
      ~spa:(translate t ~pt ~addr ~access:Memory.Perm.Write)
      v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write t ~pt ~addr b
  end

(** Allocate a fresh page of guest-"RAM": takes a guest-physical page
    from the VM's allocator; it is already EPT-backed (the hypervisor
    populated the VM's whole RAM at boot). *)
let alloc_gpa_page t = Memory.Allocator.alloc_page t.gpa_alloc
let free_gpa_page t gpa = Memory.Allocator.free_page t.gpa_alloc gpa
