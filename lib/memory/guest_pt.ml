(** Guest page tables: guest virtual → guest physical.

    Modelled after 32-bit x86 with PAE, the architecture of the paper's
    prototype (§5): three levels of 2/9/9 index bits over 4 KiB pages.
    One instance exists per process address space; the guest kernel
    maintains it, and the hypervisor walks it in software when
    executing memory operations on behalf of the driver VM (§5.2). *)

type t = { id : int; table : Radix_table.t }

let widths = [ 2; 9; 9 ] (* PAE: PDPT / PD / PT *)

(* 2+9+9 index bits + 12 offset = 32-bit virtual addresses. *)
let max_va = (1 lsl 32) - 1

(* Unique ids let the hypervisor key per-address-space state (its mmap
   registry) without structural comparison of whole tables.  The
   hypervisor always keys by [(vm id, pt id)], so callers building
   process page tables pass a per-VM id explicitly (Kernel allocates
   them) and independent machines stay deterministic.  Standalone
   tables (tests, microbenchmarks) fall back to a domain-local counter
   in a disjoint range — no shared mutable state across domains. *)
let fallback_ids = Domain.DLS.new_key (fun () -> ref 1_000_000)

let create ?id () =
  let id =
    match id with
    | Some id -> id
    | None ->
        let r = Domain.DLS.get fallback_ids in
        incr r;
        !r
  in
  { id; table = Radix_table.create ~widths }

let id t = t.id

let check_va va =
  if va < 0 || va > max_va then
    invalid_arg (Printf.sprintf "Guest_pt: va 0x%x outside 32-bit space" va)

let map t ~gva ~gpa ~perms =
  check_va gva;
  if not (Addr.is_page_aligned gva && Addr.is_page_aligned gpa) then
    invalid_arg "Guest_pt.map: unaligned";
  Radix_table.map t.table ~vfn:(Addr.pfn gva) ~pfn:(Addr.pfn gpa) ~perms

let unmap t ~gva =
  check_va gva;
  Radix_table.unmap t.table (Addr.pfn gva)

(** Software walk used by both the guest MMU model and the hypervisor.
    Returns the guest physical address (preserving the page offset)
    together with the leaf permissions — the latter feed software-TLB
    fills. *)
let translate_leaf t ~gva ~access =
  check_va gva;
  match Radix_table.walk t.table (Addr.pfn gva) with
  | Radix_table.Mapped { target_pfn; perms } ->
      if Perm.allows perms access then
        (Addr.of_pfn target_pfn lor Addr.offset gva, perms)
      else
        Fault.page_fault ~space:Fault.Guest_virtual ~addr:gva ~access
          "permission denied"
  | Radix_table.Missing_level lvl ->
      Fault.page_fault ~space:Fault.Guest_virtual ~addr:gva ~access
        (Printf.sprintf "missing level-%d table" lvl)
  | Radix_table.Not_present ->
      Fault.page_fault ~space:Fault.Guest_virtual ~addr:gva ~access "not present"

let translate t ~gva ~access = fst (translate_leaf t ~gva ~access)

let translate_opt t ~gva ~access =
  match translate t ~gva ~access with
  | gpa -> Some gpa
  | exception Fault.Page_fault _ -> None

(** Pre-create intermediate levels for a virtual range, leaving the
    leaf level untouched — performed by the CVD frontend before
    forwarding an mmap so the hypervisor only ever fixes the last
    level (§5.2). *)
let prepare_range t ~gva ~len =
  check_va gva;
  List.iter
    (fun (addr, _) -> Radix_table.ensure_intermediate t.table (Addr.pfn addr))
    (Addr.page_chunks ~addr:gva ~len)

let leaf_ready t ~gva = Radix_table.intermediate_present t.table (Addr.pfn gva)

(** Mutation counter for software-TLB invalidation (see
    {!Radix_table.generation}). *)
let generation t = Radix_table.generation t.table
