(** Software TLB: a per-address-space translation cache.

    Paradice funnels every data-plane byte through the hypervisor's
    software page walks (§5.2): a guest-PT walk plus an EPT walk per
    4 KiB page.  Kedia & Bansal show software translation caching is
    what makes software-only passthrough competitive; VIA motivates
    keeping the validation checks {e on} while making them cheap.
    This cache does both: a hit still re-checks permissions against
    the cached leaf, and staleness is impossible by construction —
    every entry records the {!Radix_table.generation} of the tables it
    was filled from, and any mutation of either table (unmap, remap,
    permission stripping, teardown) bumps the generation, turning all
    derived entries into misses.  A revoked mapping therefore faults
    exactly as an uncached walk would (§4.1 fault isolation holds with
    the cache enabled).

    Keying: [(space, vfn)] where [space] is 0 for the EPT-only
    gpa→spa cache and the guest page table's id for the combined
    gva→spa cache — one instance serves both kinds of entry for a VM.
    Every ring word, slot blit and grant-checked copy makes a lookup,
    so a hit allocates nothing and uses no polymorphic hash or
    compare: the table is an open-addressed array of entries, probed
    linearly from an integer hash of the pair.  An entry carries its
    own [space] and [vfn], and a probe stops only at the entry whose
    pair equals the request's (or at a vacant slot), so two pairs
    whose hashes collide are both kept and never served each other's
    frame.

    The cache affects wall-clock speed only: simulated time is charged
    by the cost model upstream, so calibrated experiment output is
    bit-identical with the cache on or off. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable walks : int; (* full software walks performed (slow path) *)
}

let create_stats () = { hits = 0; misses = 0; walks = 0 }

type entry = {
  space : int; (* the entry's own key: compared on every hit *)
  vfn : int;
  spn : int; (* system frame backing the page *)
  pt_perms : Perm.t; (* guest-PT leaf perms (rwx for gpa-space entries) *)
  ept_perms : Perm.t; (* EPT leaf perms *)
  pt_gen : int; (* Guest_pt generation at fill (0 for gpa-space) *)
  ept_gen : int; (* EPT generation at fill *)
}

(* Marks a vacant slot; compared physically, never matched. *)
let vacant =
  {
    space = -1;
    vfn = -1;
    spn = -1;
    pt_perms = Perm.none;
    ept_perms = Perm.none;
    pt_gen = -1;
    ept_gen = -1;
  }

type t = {
  mutable slots : entry array; (* power-of-two length, at most half used *)
  mutable count : int;
  mutable epoch : int; (* bumped by every flush *)
  stats : stats;
  max_entries : int;
}

(* The gpa→spa entries use space id 0; guest page-table ids start at 1. *)
let gpa_space = 0

(* Frame numbers are positive (spn 0 is never handed out), so -1 can
   never be a hit. *)
let miss = -1

let initial_slots = 256

let create ?(max_entries = 16384) ?stats () =
  let stats = match stats with Some s -> s | None -> create_stats () in
  { slots = Array.make initial_slots vacant; count = 0; epoch = 0; stats; max_entries }

let stats t = t.stats
let entry_count t = t.count

(* Entries leave the table only here, all at once, so an entry found
   under epoch [e] is still present while the epoch reads [e]. *)
let flush t =
  t.slots <- Array.make initial_slots vacant;
  t.count <- 0;
  t.epoch <- t.epoch + 1

let epoch t = t.epoch

(* The space id is scrambled into the page number's low bits, so the
   same page in two spaces starts probing in different slots. *)
let hash ~space ~vfn = vfn lxor (space * 0x9E3779B1)

(* Linear probe from the pair's home slot to its entry or the first
   vacant slot; at most half the slots are used, so one is reached. *)
let rec probe slots mask i ~space ~vfn =
  let e = Array.unsafe_get slots i in
  if e == vacant || (e.vfn = vfn && e.space = space) then i
  else probe slots mask ((i + 1) land mask) ~space ~vfn

let slot slots ~space ~vfn =
  let mask = Array.length slots - 1 in
  probe slots mask (hash ~space ~vfn land mask) ~space ~vfn

(** Cache lookup.  Returns the backing frame only when the request's
    own entry is current (both generations match) {e and} its cached
    leaf permissions allow [access] — anything else is {!miss} and the
    caller must perform the full walk (which faults or refills). *)
let lookup t ~space ~vfn ~access ~pt_gen ~ept_gen =
  let e = t.slots.(slot t.slots ~space ~vfn) in
  if
    e != vacant && e.pt_gen = pt_gen && e.ept_gen = ept_gen
    && Perm.allows e.pt_perms access
    && Perm.allows e.ept_perms access
  then begin
    t.stats.hits <- t.stats.hits + 1;
    e.spn
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    miss
  end

(* Store [e] in its pair's slot; true when that slot was vacant. *)
let place slots e =
  let i = slot slots ~space:e.space ~vfn:e.vfn in
  let fresh = slots.(i) == vacant in
  slots.(i) <- e;
  fresh

let install t e =
  if t.count >= t.max_entries then flush t;
  if place t.slots e then begin
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.slots then begin
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) vacant;
      Array.iter (fun e -> if e != vacant then ignore (place t.slots e : bool)) old
    end
  end

let note_hit t = t.stats.hits <- t.stats.hits + 1
let count_walks t n = t.stats.walks <- t.stats.walks + n
