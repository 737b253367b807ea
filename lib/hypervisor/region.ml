(** Protected memory regions for device data isolation (§4.2, §5.3).

    The hypervisor carves non-overlapping regions out of (a) a pool of
    driver-VM system memory pages and (b) slices of device memory, one
    region per guest VM.  It then enforces:

    - {b driver VM}: no CPU access to any region — EPT read {e and}
      write permissions removed (x86 has no write-only mappings);
    - {b guests}: each guest reaches only its own region, and only
      through hypervisor-executed memory operations;
    - {b device}: one region at a time — IOMMU holds only the active
      region's system-memory pages, and the device-memory bounds
      registers (the GPU memory controller) are clamped to the active
      region's slice. *)

type region = {
  rid : int;
  owner_vm : int; (* guest VM id *)
  pool : int array; (* spns of protected driver-VM system pages *)
  mutable pool_free : int list;
  dev_base : int; (* spa base of this region's device-memory slice *)
  dev_pages : int;
  (* IOMMU mappings this region wants live while active: dma -> (spa, perms) *)
  iommu_wants : (int, int * Memory.Perm.t) Hashtbl.t;
}

type t = {
  hyp : Hyp.t;
  driver_vm : Vm.t;
  iommu : Memory.Iommu.t;
  regions : region array;
  mutable active : int option;
  mutable set_dev_bounds : (low:int -> high:int -> unit) option;
}

exception Isolation_violation of string

let violation msg = raise (Isolation_violation msg)

(* Reverse EPT index (spn -> gpas) built once per bulk protection pass
   so protecting thousands of pages stays linear in the EPT size. *)
let reverse_index ept =
  let rev : (int, int list) Hashtbl.t = Hashtbl.create 4096 in
  Memory.Ept.iter ept (fun ~gpa ~spa ~perms:_ ->
      let spn = Memory.Addr.pfn spa in
      Hashtbl.replace rev spn (gpa :: (Option.value ~default:[] (Hashtbl.find_opt rev spn))));
  rev

let strip_indexed t rev spn =
  let gpas = Option.value ~default:[] (Hashtbl.find_opt rev spn) in
  if gpas = [] then
    violation (Printf.sprintf "page %#x not mapped in driver VM" spn);
  List.iter
    (fun gpa ->
      Memory.Ept.set_perms (Vm.ept t.driver_vm) ~gpa ~perms:Memory.Perm.none;
      (Hyp.audit t.hyp).Audit.ept_perm_updates <-
        (Hyp.audit t.hyp).Audit.ept_perm_updates + 1)
    gpas

(** Strip the driver VM's CPU access to a system-physical page.  The
    page must currently be mapped in the driver VM's EPT (device
    memory BAR pages and driver-RAM pool pages both are). *)
let strip_driver_access t spn =
  strip_indexed t (reverse_index (Vm.ept t.driver_vm)) spn

(** Build the region manager.

    [pool_spns] are driver-VM system pages donated per region (the
    driver allocated them during initialisation, when it is still
    trusted — §5.3's guideline); [dev_mem] is the device-memory BAR
    [(base_spa, pages)], split evenly between regions. *)
let create hyp ~driver_vm ~iommu ~owners ~pool_spns ~dev_mem =
  let n = List.length owners in
  if n = 0 then invalid_arg "Region.create: no guests";
  let dev_base, dev_pages = dev_mem in
  let slice = dev_pages / n in
  if slice = 0 then invalid_arg "Region.create: device memory too small to split";
  let pools = Array.of_list pool_spns in
  if Array.length pools <> n then
    invalid_arg "Region.create: need one pool per region";
  let regions =
    Array.of_list
      (List.mapi
         (fun i owner ->
           {
             rid = i;
             owner_vm = Vm.id owner;
             pool = Array.of_list pools.(i);
             pool_free = pools.(i);
             dev_base = dev_base + (i * slice * Memory.Addr.page_size);
             dev_pages = slice;
             iommu_wants = Hashtbl.create 64;
           })
         owners)
  in
  let t = { hyp; driver_vm; iommu; regions; active = None; set_dev_bounds = None } in
  (* Protect every pool page and the whole device-memory range from the
     driver VM's CPU. *)
  let rev = reverse_index (Vm.ept driver_vm) in
  Array.iter (fun r -> Array.iter (strip_indexed t rev) r.pool) regions;
  for i = 0 to dev_pages - 1 do
    strip_indexed t rev (Memory.Addr.pfn dev_base + i)
  done;
  t

let region t rid =
  if rid < 0 || rid >= Array.length t.regions then violation "no such region";
  t.regions.(rid)

let region_of_guest t vm_id =
  match Array.find_opt (fun r -> r.owner_vm = vm_id) t.regions with
  | Some r -> Some r.rid
  | None -> None

let dev_slice t rid =
  let r = region t rid in
  (r.dev_base, r.dev_pages)

(** Register the callback that programs the device-memory bounds
    registers.  The GPU wiring installs this after the hypervisor has
    unmapped the memory-controller MMIO page from the driver VM. *)
let install_dev_bounds_setter t f = t.set_dev_bounds <- Some f

(** Take a protected system page from a region's pool — the driver
    calls this (via hypercall) to back a guest mmap with isolated
    memory. *)
let alloc_protected_page t ~rid =
  let r = region t rid in
  match r.pool_free with
  | [] -> violation (Printf.sprintf "region %d pool exhausted" rid)
  | spn :: rest ->
      r.pool_free <- rest;
      Memory.Addr.of_pfn spn

(** Return a page to the pool.  The hypervisor scrubs it so the next
    user (possibly another guest, after a repartition) sees zeros. *)
let free_protected_page t ~rid ~spa =
  let r = region t rid in
  let spn = Memory.Addr.pfn spa in
  if not (Array.exists (fun p -> p = spn) r.pool) then
    violation "free of page not in region pool";
  Memory.Phys_mem.zero_frame (Hyp.phys t.hyp) spn;
  (Hyp.audit t.hyp).Audit.pages_scrubbed <- (Hyp.audit t.hyp).Audit.pages_scrubbed + 1;
  r.pool_free <- spn :: r.pool_free

let page_in_pool r spn = Array.exists (fun p -> p = spn) r.pool

(** Driver request: map [spa] at DMA address [dma] for [rid].  Only
    pages belonging to the region's own pool are accepted — this is
    the check that stops a compromised driver from pointing one
    region's DMA window at another guest's data.  The mapping becomes
    live in the IOMMU only while the region is active. *)
let request_iommu_map t ~rid ~dma ~spa ~perms =
  let r = region t rid in
  let spn = Memory.Addr.pfn spa in
  if not (page_in_pool r spn) then
    violation
      (Printf.sprintf "IOMMU map of %#x rejected: not in region %d pool" spa rid);
  Hashtbl.replace r.iommu_wants dma (spa, perms);
  if t.active = Some rid then
    Memory.Iommu.map t.iommu ~dma ~spa ~perms ~region:(Some rid)

let request_iommu_unmap t ~rid ~dma =
  let r = region t rid in
  Hashtbl.remove r.iommu_wants dma;
  if t.active = Some rid then Memory.Iommu.unmap t.iommu ~dma

(** Switch the device to [rid]'s region: unmap the previous region's
    pages from the IOMMU, map the new region's, and clamp the device
    memory bounds to the new region's slice.  Returns the number of
    IOMMU entries touched so callers can charge the switching cost the
    paper calls out as unoptimised (§5.3). *)
let switch_region t ~rid =
  let r = region t rid in
  if t.active = Some rid then 0
  else begin
    let touched = ref 0 in
    (match t.active with
    | Some prev ->
        touched := Memory.Iommu.unmap_region t.iommu prev
    | None -> ());
    Hashtbl.iter
      (fun dma (spa, perms) ->
        Memory.Iommu.map t.iommu ~dma ~spa ~perms ~region:(Some rid);
        incr touched)
      r.iommu_wants;
    (match t.set_dev_bounds with
    | Some set ->
        set ~low:r.dev_base
          ~high:(r.dev_base + (r.dev_pages * Memory.Addr.page_size))
    | None -> ());
    t.active <- Some rid;
    (Hyp.audit t.hyp).Audit.region_switches <-
      (Hyp.audit t.hyp).Audit.region_switches + 1;
    !touched
  end

(** Hypercall for the rare cases the driver legitimately needs to write
    a protected device-memory buffer (the GPU address-translation
    buffer, §5.3 change (iv)): the hypervisor performs the write after
    checking it stays inside the caller's region slice. *)
let hyp_write_dev_mem t ~rid ~spa ~data =
  let r = region t rid in
  (Hyp.audit t.hyp).Audit.hypercalls <- (Hyp.audit t.hyp).Audit.hypercalls + 1;
  let hi = r.dev_base + (r.dev_pages * Memory.Addr.page_size) in
  if spa < r.dev_base || spa + Bytes.length data > hi then
    violation "dev-mem write outside region slice";
  Memory.Phys_mem.write (Hyp.phys t.hyp) ~spa data

let hyp_read_dev_mem t ~rid ~spa ~len =
  let r = region t rid in
  (Hyp.audit t.hyp).Audit.hypercalls <- (Hyp.audit t.hyp).Audit.hypercalls + 1;
  let hi = r.dev_base + (r.dev_pages * Memory.Addr.page_size) in
  if spa < r.dev_base || spa + len > hi then
    violation "dev-mem read outside region slice";
  Memory.Phys_mem.read (Hyp.phys t.hyp) ~spa ~len
