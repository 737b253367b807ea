(** The hypervisor.

    A Type-I hypervisor in the paper's design (§3.1, Figure 1(c)): it
    owns system physical memory and every VM's EPT, assigns devices to
    the driver VM, and exposes the memory-operation API of §5.2 to the
    driver VM — with the strict runtime checks of §4.1 applied to every
    request, because a compromised driver VM is assumed. *)

type t = {
  phys : Memory.Phys_mem.t;
  audit : Audit.t;
  mutable vms : Vm.t list;
  grant_tables : (int, Grant_table.t) Hashtbl.t; (* vm id -> table *)
  (* (vm id, grant_ref) -> declared group + the table generation it was
     read at; stale generations fall through to a fresh shared-page scan *)
  grant_cache : (int * int, Grant_table.op list * int) Hashtbl.t;
  (* (vm id, pt id, gva) -> gpa backing an mmap performed via map_page *)
  mmap_registry : (int * int * int, int) Hashtbl.t;
  (* (vm id, pid) -> process page table: how the hypervisor resolves a
     guest process named in a driver-VM request (the real system reads
     the guest CR3 at trap time) *)
  process_registry : (int * int, Memory.Guest_pt.t) Hashtbl.t;
  mutable validate : bool; (* fault-isolation runtime checks (§4.1) *)
  mutable next_vm_id : int;
  mutable tracer : Obs.Trace.t; (* span sink for memory-op callers *)
}

exception Rejected of string
(** A driver-VM request failed validation.  In hardware this would be
    a hypercall error return; the driver VM sees the operation fail. *)

let create phys =
  {
    phys;
    audit = Audit.create ();
    vms = [];
    grant_tables = Hashtbl.create 8;
    grant_cache = Hashtbl.create 64;
    mmap_registry = Hashtbl.create 64;
    process_registry = Hashtbl.create 64;
    validate = true;
    next_vm_id = 0;
    tracer = Obs.Trace.disabled;
  }

let set_validation t on = t.validate <- on
let set_tracer t tracer = t.tracer <- tracer
let tracer t = t.tracer

let phys t = t.phys
let audit t = t.audit
let vms t = t.vms

let reject t msg =
  t.audit.Audit.grants_rejected <- t.audit.Audit.grants_rejected + 1;
  raise (Rejected msg)

(** Create a VM with [mem_bytes] of RAM: fresh frames mapped 1:1 from
    guest physical 0 upward. *)
let create_vm t ~name ~kind ~mem_bytes =
  if mem_bytes <= 0 || mem_bytes mod Memory.Addr.page_size <> 0 then
    invalid_arg "Hyp.create_vm: mem_bytes must be a positive page multiple";
  let id = t.next_vm_id in
  t.next_vm_id <- id + 1;
  let pages = mem_bytes / Memory.Addr.page_size in
  let ept = Memory.Ept.create () in
  let base_spn = Memory.Phys_mem.alloc_frames t.phys pages in
  for i = 0 to pages - 1 do
    Memory.Ept.map ept
      ~gpa:(Memory.Addr.of_pfn i)
      ~spa:(Memory.Addr.of_pfn (base_spn + i))
      ~perms:Memory.Perm.rwx
  done;
  let vm =
    {
      Vm.id;
      name;
      kind;
      phys = t.phys;
      ept;
      (* all VM TLBs feed the hypervisor's audit counters *)
      tlb = Memory.Tlb.create ~stats:t.audit.Audit.tlb ();
      gpa_alloc = Memory.Allocator.create ~base:0 ~size:mem_bytes;
      alive = true;
    }
  in
  t.vms <- vm :: t.vms;
  vm

(** Mark a VM dead (crash or explicit kill).  Its pending and future
    memory-operation requests are rejected — crash containment: a dead
    driver VM can no longer touch guest memory.  Its cached
    translations are dropped so nothing survives into a rebooted
    instance. *)
let kill_vm t vm =
  ignore t;
  vm.Vm.alive <- false;
  Vm.flush_tlb vm

(* Undo one {!map_page_into_process} mapping: clear the guest leaf
   (when its page table is known), unmap the EPT entry, unreserve the
   gpa, drop the registry entry and count the unmap, in that order. *)
let drop_mapping t ~target pt ((_, _, gva) as key) gpa =
  Option.iter (fun pt -> ignore (Memory.Guest_pt.unmap pt ~gva)) pt;
  ignore (Memory.Ept.unmap target.Vm.ept ~gpa);
  Memory.Allocator.unreserve target.Vm.gpa_alloc gpa;
  Hashtbl.remove t.mmap_registry key;
  t.audit.Audit.unmaps_performed <- t.audit.Audit.unmaps_performed + 1

(** Tear down every cross-VM mapping installed into [target] by
    {!map_page_into_process}: EPT entries are unmapped, the backing
    guest-physical pages unreserved and — when the owning process page
    table is still registered — the stale guest leaf cleared.  Called
    when the driver VM dies, so the guest holds no mappings a rebooted
    (or attacker-controlled) driver VM could reuse.  Returns the
    number of mappings destroyed. *)
let teardown_vm_mappings t ~target =
  let vm_id = Vm.id target in
  let doomed =
    Hashtbl.fold
      (fun ((id, _, _) as key) gpa acc ->
        if id = vm_id then (key, gpa) :: acc else acc)
      t.mmap_registry []
  in
  let pts =
    Hashtbl.fold
      (fun (id, _) pt acc -> if id = vm_id then pt :: acc else acc)
      t.process_registry []
  in
  List.iter
    (fun (((_, pt_id, _) as key), gpa) ->
      drop_mapping t ~target
        (List.find_opt (fun pt -> Memory.Guest_pt.id pt = pt_id) pts)
        key gpa)
    doomed;
  List.length doomed

(** Re-validate every cross-VM mapping installed into [target] after a
    planned driver-VM handoff.  Mappings are keyed by the {e guest}
    (vm, process page table, gva) — not by the departed driver VM — so
    they can survive an upgrade with zero guest-visible faults; but the
    successor must not inherit state it cannot prove.  A mapping
    survives iff its owning process is still registered, its guest
    leaf still resolves, and the EPT still backs the recorded gpa;
    anything else is torn down exactly as {!teardown_vm_mappings}
    would.  Returns [(kept, dropped)]. *)
let revalidate_vm_mappings t ~target =
  let vm_id = Vm.id target in
  let entries =
    Hashtbl.fold
      (fun ((id, _, _) as key) gpa acc ->
        if id = vm_id then (key, gpa) :: acc else acc)
      t.mmap_registry []
    |> List.sort compare
  in
  let pt_of pt_id =
    Hashtbl.fold
      (fun (id, _) pt acc ->
        if id = vm_id && Memory.Guest_pt.id pt = pt_id then Some pt else acc)
      t.process_registry None
  in
  let kept = ref 0 and dropped = ref 0 in
  List.iter
    (fun (((_, pt_id, gva) as key), gpa) ->
      let pt = pt_of pt_id in
      let valid =
        match pt with
        | None -> false
        | Some pt -> (
            match Memory.Guest_pt.translate_opt pt ~gva ~access:Memory.Perm.Read with
            | Some leaf_gpa ->
                leaf_gpa = gpa
                && Memory.Ept.lookup target.Vm.ept ~gpa <> None
            | None -> false)
      in
      if valid then incr kept
      else begin
        drop_mapping t ~target pt key gpa;
        incr dropped
      end)
    entries;
  (!kept, !dropped)

(* ---- grant tables ---- *)

(** Set up a guest's grant table (one page shared guest<->hypervisor). *)
let setup_grant_table t guest =
  let table = Grant_table.create t.phys ~guest_vm:guest in
  Hashtbl.replace t.grant_tables (Vm.id guest) table;
  table

let grant_table_of t guest = Hashtbl.find_opt t.grant_tables (Vm.id guest)

let check_grant t ~target ~grant_ref ~requested =
  if t.validate then begin
    t.audit.Audit.copies_validated <- t.audit.Audit.copies_validated + 1;
    match Hashtbl.find_opt t.grant_tables (Vm.id target) with
    | None -> reject t "target guest has no grant table"
    | Some table ->
        (* The declared group is immutable between grant-table
           mutations, so cache the shared-page scan keyed by the table
           generation ({!Grant_table.generation}). *)
        let gen = Grant_table.generation table in
        let key = (Vm.id target, grant_ref) in
        let declared =
          match Hashtbl.find_opt t.grant_cache key with
          | Some (ops, cached_gen) when cached_gen = gen ->
              t.audit.Audit.grant_cache_hits <-
                t.audit.Audit.grant_cache_hits + 1;
              ops
          | Some _ | None ->
              let ops = Grant_table.lookup table grant_ref in
              Hashtbl.replace t.grant_cache key (ops, gen);
              ops
        in
        if not (Grant_table.authorises_ops declared ~requested) then begin
          (* charged to the guest whose grant failed, on its own table:
             the backend scores each guest from that counter *)
          Grant_table.note_violation table;
          reject t
            (Fmt.str "operation %a not declared under grant %d"
               Grant_table.pp_op requested grant_ref)
        end
  end

(* ---- guest process registry ---- *)

let register_process t vm ~pid ~pt =
  Hashtbl.replace t.process_registry (Vm.id vm, pid) pt

let find_process_pt t vm ~pid =
  Hashtbl.find_opt t.process_registry (Vm.id vm, pid)

(* ---- memory-operation API (§5.2) ---- *)

(** Requests carry the caller so the hypervisor can refuse API use by
    non-driver VMs, and a grant reference naming the frontend's
    declaration. *)
type request = {
  caller : Vm.t;
  target : Vm.t;
  pt : Memory.Guest_pt.t; (* target process's page table *)
  grant_ref : int;
}

let check_caller t req =
  t.audit.Audit.hypercalls <- t.audit.Audit.hypercalls + 1;
  if Vm.kind req.caller <> Vm.Driver then
    reject t "memory-operation API restricted to the driver VM";
  if not (Vm.alive req.caller) then
    reject t "memory-operation request from a dead driver VM";
  if Vm.id req.target = Vm.id req.caller then
    reject t "target must be a guest VM"

(** Copy [len] bytes out of the target process's memory into
    [dst] at [dst_off] (the driver's [copy_from_user]).  Translation
    is per page — guest PT walk then EPT walk (§5.2), both served from
    the target VM's software TLB when warm — and the bytes land
    directly in the caller's buffer, with no intermediate copy. *)
let copy_from_process_into t req ~gva ~dst ~dst_off ~len =
  check_caller t req;
  check_grant t ~target:req.target ~grant_ref:req.grant_ref
    ~requested:(Grant_table.Copy_from_user { addr = gva; len });
  (try Vm.read_into req.target ~pt:req.pt ~addr:gva ~dst ~dst_off ~len
   with Memory.Fault.Page_fault info ->
     reject t (Fmt.str "target translation failed: %a" Memory.Fault.pp_info info));
  t.audit.Audit.copy_bytes <- t.audit.Audit.copy_bytes + len

let copy_from_process t req ~gva ~len =
  let data = Bytes.create len in
  copy_from_process_into t req ~gva ~dst:data ~dst_off:0 ~len;
  data

(** Copy into the target process's memory (the driver's
    [copy_to_user]). *)
let copy_to_process_from t req ~gva ~src ~src_off ~len =
  check_caller t req;
  check_grant t ~target:req.target ~grant_ref:req.grant_ref
    ~requested:(Grant_table.Copy_to_user { addr = gva; len });
  (try Vm.write_from req.target ~pt:req.pt ~addr:gva ~src ~src_off ~len
   with Memory.Fault.Page_fault info ->
     reject t (Fmt.str "target translation failed: %a" Memory.Fault.pp_info info));
  t.audit.Audit.copy_bytes <- t.audit.Audit.copy_bytes + len

let copy_to_process t req ~gva ~data =
  copy_to_process_from t req ~gva ~src:data ~src_off:0 ~len:(Bytes.length data)

(** Map one system-physical page into the target process at [gva]
    (backs the driver's [insert_pfn] during mmap/page-fault handling).

    Per §5.2: the hypervisor picks an {e unused} guest-physical page,
    points the EPT leaf at [spa], and fixes only the {e last} level of
    the guest page table — the frontend must have created the
    intermediate levels already. *)
let map_page_into_process t req ~gva ~spa ~perms =
  check_caller t req;
  if not (Memory.Addr.is_page_aligned gva && Memory.Addr.is_page_aligned spa) then
    reject t "map_page: unaligned";
  check_grant t ~target:req.target ~grant_ref:req.grant_ref
    ~requested:(Grant_table.Map_page { addr = gva; len = Memory.Addr.page_size });
  if not (Memory.Guest_pt.leaf_ready req.pt ~gva) then
    reject t "map_page: guest page-table levels not prepared by frontend";
  let key = (Vm.id req.target, Memory.Guest_pt.id req.pt, gva) in
  if Hashtbl.mem t.mmap_registry key then reject t "map_page: gva already mapped";
  let gpa = Memory.Allocator.reserve_unused req.target.Vm.gpa_alloc in
  Memory.Ept.map req.target.Vm.ept ~gpa ~spa ~perms;
  Memory.Guest_pt.map req.pt ~gva ~gpa ~perms;
  Hashtbl.replace t.mmap_registry key gpa;
  t.audit.Audit.maps_performed <- t.audit.Audit.maps_performed + 1

(** Tear down a mapping made by {!map_page_into_process}.  The guest
    kernel has already destroyed its own page-table leaf before the
    driver learns of the unmap (§5.2), so only the EPT needs fixing —
    but we tolerate (and clear) a still-present guest leaf, since a
    malicious guest kernel might leave it.  Like every other
    memory-operation hypercall, the request is validated against the
    caller: a non-driver or dead VM cannot unmap guest pages.  The
    radix-table mutations bump their generation counters, so any
    software-TLB entry covering the torn-down page goes stale
    immediately. *)
let unmap_page_from_process t req ~gva =
  check_caller t req;
  let key = (Vm.id req.target, Memory.Guest_pt.id req.pt, gva) in
  match Hashtbl.find_opt t.mmap_registry key with
  | None -> reject t "unmap_page: no such mapping"
  | Some gpa -> drop_mapping t ~target:req.target (Some req.pt) key gpa

let mapped_via_hypervisor t ~target ~pt ~gva =
  Hashtbl.mem t.mmap_registry (Vm.id target, Memory.Guest_pt.id pt, gva)
