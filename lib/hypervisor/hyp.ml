(** The hypervisor.

    A Type-I hypervisor in the paper's design (§3.1, Figure 1(c)): it
    owns system physical memory and every VM's EPT, assigns devices to
    the driver VM, and exposes the memory-operation API of §5.2 to the
    driver VM — with the strict runtime checks of §4.1 applied to every
    request, because a compromised driver VM is assumed. *)

(* What the hypervisor knows about one VM. *)
type vm_state = {
  vm : Vm.t;
  mutable grants : Grant_table.t option; (* a guest's, once set up *)
  (* pid -> process page table: how the hypervisor resolves a guest
     process named in a driver-VM request (the real system reads the
     guest CR3 at trap time) *)
  processes : Memory.Guest_pt.t Sim.Int_table.t;
  (* (pt id, gva) -> gpa backing an mmap performed via map_page; most
     VMs map nothing, so the table is made on the first map *)
  mutable mmaps : (int * int, int) Hashtbl.t option;
}

type t = {
  phys : Memory.Phys_mem.t;
  audit : Audit.t;
  mutable vms : vm_state array; (* indexed by VM id: ids are dense from 0 *)
  mutable validate : bool; (* fault-isolation runtime checks (§4.1) *)
  mutable tracer : Obs.Trace.t; (* span sink for memory-op callers *)
}

exception Rejected of string
(** A driver-VM request failed validation.  In hardware this would be
    a hypercall error return; the driver VM sees the operation fail. *)

let create phys =
  {
    phys;
    audit = Audit.create ();
    vms = [||];
    validate = true;
    tracer = Obs.Trace.disabled;
  }

let set_validation t on = t.validate <- on
let set_tracer t tracer = t.tracer <- tracer
let tracer t = t.tracer

let phys t = t.phys
let audit t = t.audit

(* Newest first. *)
let vms t = Array.fold_left (fun acc s -> s.vm :: acc) [] t.vms

let state t vm = t.vms.(Vm.id vm)

let reject t msg =
  t.audit.Audit.grants_rejected <- t.audit.Audit.grants_rejected + 1;
  raise (Rejected msg)

(** Create a VM with [mem_bytes] of RAM: fresh frames mapped 1:1 from
    guest physical 0 upward. *)
let create_vm t ~name ~kind ~mem_bytes =
  if mem_bytes <= 0 || mem_bytes mod Memory.Addr.page_size <> 0 then
    invalid_arg "Hyp.create_vm: mem_bytes must be a positive page multiple";
  let id = Array.length t.vms in
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
  let state = { vm; grants = None; processes = Sim.Int_table.create 1; mmaps = None } in
  t.vms <- Array.append t.vms [| state |];
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
let drop_mapping t s pt ((_, gva) as key) gpa =
  Option.iter (fun pt -> ignore (Memory.Guest_pt.unmap pt ~gva)) pt;
  ignore (Memory.Ept.unmap s.vm.Vm.ept ~gpa);
  Memory.Allocator.unreserve s.vm.Vm.gpa_alloc gpa;
  Option.iter (fun mmaps -> Hashtbl.remove mmaps key) s.mmaps;
  t.audit.Audit.unmaps_performed <- t.audit.Audit.unmaps_performed + 1

(* The registered process page table with id [pt_id], if any. *)
let registered_pt s pt_id =
  Seq.find
    (fun pt -> Memory.Guest_pt.id pt = pt_id)
    (Sim.Int_table.to_seq_values s.processes)

let mappings s =
  match s.mmaps with
  | None -> []
  | Some mmaps -> Hashtbl.fold (fun key gpa acc -> (key, gpa) :: acc) mmaps []

(** Tear down every cross-VM mapping installed into [target] by
    {!map_page_into_process}: EPT entries are unmapped, the backing
    guest-physical pages unreserved and — when the owning process page
    table is still registered — the stale guest leaf cleared.  Called
    when the driver VM dies, so the guest holds no mappings a rebooted
    (or attacker-controlled) driver VM could reuse.  Returns the
    number of mappings destroyed. *)
let teardown_vm_mappings t ~target =
  let s = state t target in
  match mappings s with
  | [] -> 0
  | doomed ->
      List.iter
        (fun (((pt_id, _) as key), gpa) -> drop_mapping t s (registered_pt s pt_id) key gpa)
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
  let s = state t target in
  let kept = ref 0 and dropped = ref 0 in
  List.iter
    (fun (((pt_id, gva) as key), gpa) ->
      let pt = registered_pt s pt_id in
      let valid =
        match pt with
        | None -> false
        | Some pt -> (
            match Memory.Guest_pt.translate_opt pt ~gva ~access:Memory.Perm.Read with
            | Some leaf_gpa ->
                leaf_gpa = gpa && Memory.Ept.lookup s.vm.Vm.ept ~gpa <> None
            | None -> false)
      in
      if valid then incr kept
      else begin
        drop_mapping t s pt key gpa;
        incr dropped
      end)
    (List.sort compare (mappings s));
  (!kept, !dropped)

(* ---- grant tables ---- *)

(** Set up a guest's grant table (one page shared guest<->hypervisor). *)
let setup_grant_table t guest =
  let table = Grant_table.create t.phys ~guest_vm:guest in
  (state t guest).grants <- Some table;
  table

let grant_table_of t guest = (state t guest).grants

let check_grant t ~target ~grant_ref ~requested =
  if t.validate then begin
    t.audit.Audit.copies_validated <- t.audit.Audit.copies_validated + 1;
    match (state t target).grants with
    | None -> reject t "target guest has no grant table"
    | Some table ->
        if not (Grant_table.authorises table ~grant_ref ~requested) then begin
          (* charged to the guest whose grant failed, on its own table:
             the backend scores each guest from that counter *)
          Grant_table.note_violation table;
          reject t
            (Fmt.str "operation %a not declared under grant %d"
               Grant_table.pp_op requested grant_ref)
        end
  end

(* ---- guest process registry ---- *)

(* Every forwarded operation registers its process, so only a new
   binding writes. *)
let register_process t vm ~pid ~pt =
  let processes = (state t vm).processes in
  match Sim.Int_table.find processes pid with
  | known when known == pt -> ()
  | _ | (exception Not_found) -> Sim.Int_table.replace processes pid pt

let find_process_pt t vm ~pid = Sim.Int_table.find_opt (state t vm).processes pid

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

(* The driver's own buffer range, checked once the grant has passed and
   before the first guest-memory access, so a malformed copy touches
   nothing. *)
let check_buffer what buf ~off ~len =
  if len < 0 || off < 0 || off > Bytes.length buf - len then
    invalid_arg (what ^ ": buffer range out of bounds")

(** Copy [len] bytes out of the target process's memory into
    [dst] at [dst_off] (the driver's [copy_from_user]).  Translation
    is per page — guest PT walk then EPT walk (§5.2), both served from
    the target VM's software TLB when warm — and the bytes land
    directly in the caller's buffer, with no intermediate copy. *)
let copy_from_process_into t req ~gva ~dst ~dst_off ~len =
  check_caller t req;
  check_grant t ~target:req.target ~grant_ref:req.grant_ref
    ~requested:(Grant_table.Copy_from_user { addr = gva; len });
  check_buffer "Hyp.copy_from_process_into" dst ~off:dst_off ~len;
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
  check_buffer "Hyp.copy_to_process_from" src ~off:src_off ~len;
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
  let s = state t req.target and key = (Memory.Guest_pt.id req.pt, gva) in
  let mmaps =
    match s.mmaps with
    | Some mmaps -> mmaps
    | None ->
        let mmaps = Hashtbl.create 16 in
        s.mmaps <- Some mmaps;
        mmaps
  in
  if Hashtbl.mem mmaps key then reject t "map_page: gva already mapped";
  let gpa = Memory.Allocator.reserve_unused req.target.Vm.gpa_alloc in
  Memory.Ept.map req.target.Vm.ept ~gpa ~spa ~perms;
  Memory.Guest_pt.map req.pt ~gva ~gpa ~perms;
  Hashtbl.replace mmaps key gpa;
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
  let s = state t req.target and key = (Memory.Guest_pt.id req.pt, gva) in
  match Option.bind s.mmaps (fun mmaps -> Hashtbl.find_opt mmaps key) with
  | None -> reject t "unmap_page: no such mapping"
  | Some gpa -> drop_mapping t s (Some req.pt) key gpa

let mapped_via_hypervisor t ~target ~pt ~gva =
  match (state t target).mmaps with
  | None -> false
  | Some mmaps -> Hashtbl.mem mmaps (Memory.Guest_pt.id pt, gva)
