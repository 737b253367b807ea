(* Tests for the software TLB: stale entries must never outlive a
   revoked or re-permissioned mapping (§4.1 fault isolation with the
   translation cache on), hits must actually happen on warm paths, and
   a released or revoked grant must stop authorising at once. *)

open Hypervisor

let mib = 1024 * 1024

let make_hyp () =
  let phys = Memory.Phys_mem.create () in
  Hyp.create phys

let make_guest_with_process hyp =
  let guest = Hyp.create_vm hyp ~name:"guest" ~kind:Vm.Guest ~mem_bytes:(4 * mib) in
  let pt = Memory.Guest_pt.create () in
  for i = 0 to 7 do
    let gpa = Vm.alloc_gpa_page guest in
    Memory.Guest_pt.map pt
      ~gva:(0x1000 + (i * Memory.Addr.page_size))
      ~gpa ~perms:Memory.Perm.rw
  done;
  (guest, pt)

let driver_and_guest () =
  let hyp = make_hyp () in
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(4 * mib) in
  let guest, pt = make_guest_with_process hyp in
  let table = Hyp.setup_grant_table hyp guest in
  (hyp, driver, guest, pt, table)

(* Install a device page into the guest process via the full
   memory-operation API; returns the request used. *)
let map_device_page hyp driver guest pt table ~gva =
  let dev_spn = Memory.Phys_mem.alloc_frame (Hyp.phys hyp) in
  Memory.Phys_mem.write (Hyp.phys hyp)
    ~spa:(Memory.Addr.of_pfn dev_spn)
    (Bytes.of_string "device-bytes");
  let r =
    Grant_table.declare table
      [ Grant_table.Map_page { addr = gva; len = Memory.Addr.page_size } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  Memory.Guest_pt.prepare_range pt ~gva ~len:Memory.Addr.page_size;
  Hyp.map_page_into_process hyp req ~gva ~spa:(Memory.Addr.of_pfn dev_spn)
    ~perms:Memory.Perm.rw;
  req

let faults_on_read vm pt gva =
  match Vm.read vm ~pt ~addr:gva ~len:4 with
  | _ -> false
  | exception (Memory.Fault.Page_fault _ | Memory.Fault.Ept_violation _) -> true

(* ---- invalidation: cached translations must fault after revocation ---- *)

let test_stale_after_guest_pt_unmap () =
  let hyp, _driver, guest, pt, _table = driver_and_guest () in
  ignore hyp;
  Vm.write guest ~pt ~addr:0x1000 (Bytes.of_string "warm");
  Alcotest.(check string) "cached read works" "warm"
    (Bytes.to_string (Vm.read guest ~pt ~addr:0x1000 ~len:4));
  ignore (Memory.Guest_pt.unmap pt ~gva:0x1000);
  Alcotest.(check bool) "read faults after guest-PT unmap" true
    (faults_on_read guest pt 0x1000)

let test_stale_after_ept_set_perms () =
  let hyp, _driver, guest, pt, _table = driver_and_guest () in
  ignore hyp;
  Vm.write guest ~pt ~addr:0x1000 (Bytes.of_string "warm");
  let (_ : bytes) = Vm.read guest ~pt ~addr:0x1000 ~len:4 in
  let gpa = Memory.Guest_pt.translate pt ~gva:0x1000 ~access:Memory.Perm.Read in
  Memory.Ept.set_perms (Vm.ept guest) ~gpa ~perms:Memory.Perm.none;
  Alcotest.(check bool) "read faults after EPT permission strip" true
    (faults_on_read guest pt 0x1000)

let test_stale_after_unmap_page_from_process () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x40000000 in
  let req = map_device_page hyp driver guest pt table ~gva in
  Alcotest.(check string) "mapped page readable (fills TLB)" "device-bytes"
    (Bytes.to_string (Vm.read guest ~pt ~addr:gva ~len:12));
  Hyp.unmap_page_from_process hyp req ~gva;
  Alcotest.(check bool) "cached translation faults after unmap hypercall" true
    (faults_on_read guest pt gva)

let test_stale_after_teardown_vm_mappings () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  Hyp.register_process hyp guest ~pid:1 ~pt;
  let gva = 0x40000000 in
  let (_ : Hyp.request) = map_device_page hyp driver guest pt table ~gva in
  let (_ : bytes) = Vm.read guest ~pt ~addr:gva ~len:4 in
  Alcotest.(check int) "one mapping torn down" 1
    (Hyp.teardown_vm_mappings hyp ~target:guest);
  Alcotest.(check bool) "cached translation faults after teardown" true
    (faults_on_read guest pt gva)

let test_kill_vm_flushes_tlb () =
  let hyp, _driver, guest, pt, _table = driver_and_guest () in
  Vm.write guest ~pt ~addr:0x1000 (Bytes.of_string "warm");
  let (_ : bytes) = Vm.read guest ~pt ~addr:0x1000 ~len:4 in
  Alcotest.(check bool) "TLB populated" true
    (Memory.Tlb.entry_count (Vm.tlb guest) > 0);
  Hyp.kill_vm hyp guest;
  Alcotest.(check int) "TLB empty after kill" 0
    (Memory.Tlb.entry_count (Vm.tlb guest))

(* ---- hit rate ---- *)

let test_second_copy_all_hits () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let len = 4 * Memory.Addr.page_size in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let audit = Hyp.audit hyp in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len in
  let misses_after_first = Audit.tlb_misses audit in
  let hits_before = Audit.tlb_hits audit in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len in
  Alcotest.(check int) "no new misses on the second copy" misses_after_first
    (Audit.tlb_misses audit);
  Alcotest.(check int) "every page of the second copy hit" (hits_before + 4)
    (Audit.tlb_hits audit)

let test_hit_rate_above_90_percent () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let len = 8 * Memory.Addr.page_size in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  for _ = 1 to 50 do
    ignore (Hyp.copy_from_process hyp req ~gva:0x1000 ~len)
  done;
  let audit = Hyp.audit hyp in
  let hits = float_of_int (Audit.tlb_hits audit)
  and misses = float_of_int (Audit.tlb_misses audit) in
  Alcotest.(check bool) "hit rate above 90%" true (hits /. (hits +. misses) > 0.9)

(* ---- the hit path allocates nothing ---- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_hot_page_no_alloc () =
  let hyp = make_hyp () in
  let vm = Hyp.create_vm hyp ~name:"vm" ~kind:Vm.Guest ~mem_bytes:(4 * mib) in
  let gpa = Vm.alloc_gpa_page vm in
  let region = Shared_page.allocate (Hyp.phys hyp) in
  let (_ : int) = Shared_page.map_into region vm ~perms:Memory.Perm.rw in
  let view = Shared_page.view_of region vm in
  (* warm up: materialise both frames and fill the TLB *)
  Vm.write_u32 vm ~pt:Vm.no_pt ~addr:gpa 1;
  view.Shared_page.write_u32 ~offset:8 1;
  let audit = Hyp.audit hyp in
  let hits = Audit.tlb_hits audit and misses = Audit.tlb_misses audit in
  let idle = minor_words (fun () -> ()) in
  let words =
    minor_words (fun () ->
        for i = 1 to 1000 do
          Vm.write_u32 vm ~pt:Vm.no_pt ~addr:gpa i;
          ignore (Sys.opaque_identity (Vm.read_u32 vm ~pt:Vm.no_pt ~addr:gpa));
          ignore (Sys.opaque_identity (view.Shared_page.read_u32 ~offset:8))
        done)
  in
  Alcotest.(check (float 0.)) "3,000 hot-page accesses allocate nothing" idle words;
  Alcotest.(check int) "every access was a TLB hit" (hits + 3000) (Audit.tlb_hits audit);
  Alcotest.(check int) "and none missed" misses (Audit.tlb_misses audit);
  Alcotest.(check int) "the stores landed" 1000 (Vm.read_u32 vm ~pt:Vm.no_pt ~addr:gpa);
  (* a warm view's slot-sized blits hold their frame too *)
  let slot = Bytes.make 1024 'x' and copy = Bytes.create 1024 in
  view.Shared_page.write ~offset:1024 slot;
  view.Shared_page.read_into ~offset:1024 ~len:1024 copy;
  let hits = Audit.tlb_hits audit in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          view.Shared_page.write ~offset:1024 slot;
          view.Shared_page.read_into ~offset:1024 ~len:1024 copy
        done)
  in
  Alcotest.(check (float 0.)) "2,000 warm 1 KiB blits allocate nothing" idle words;
  Alcotest.(check int) "each counted one TLB hit" (hits + 2000) (Audit.tlb_hits audit);
  Alcotest.(check string) "and the bytes arrived" (Bytes.to_string slot)
    (Bytes.to_string copy);
  (* warm copies through a process table, the guest-physical space and
     system memory move their bytes without allocating: 2,000 of each *)
  let guest, pt = make_guest_with_process hyp in
  let phys = Hyp.phys hyp in
  let spa = Memory.Addr.of_pfn (Memory.Phys_mem.alloc_frame phys) in
  let small = Bytes.make 64 's' and big = Bytes.make 6000 'b' in
  let copies =
    [
      ( "64-byte read through a process table",
        fun () -> Vm.read_into guest ~pt ~addr:0x1000 ~dst:small ~dst_off:0 ~len:64 );
      ( "64-byte write through a process table",
        fun () -> Vm.write_from guest ~pt ~addr:0x1000 ~src:small ~src_off:0 ~len:64 );
      ( "6,000-byte page-straddling read",
        fun () -> Vm.read_into guest ~pt ~addr:0x1f00 ~dst:big ~dst_off:0 ~len:6000 );
      ( "64-byte read through no_pt",
        fun () -> Vm.read_into vm ~pt:Vm.no_pt ~addr:gpa ~dst:small ~dst_off:0 ~len:64 );
      ( "Phys_mem 64-byte write and read",
        fun () ->
          Memory.Phys_mem.write_from phys ~spa ~src:small ~src_off:0 ~len:64;
          Memory.Phys_mem.read_into phys ~spa ~dst:small ~dst_off:0 ~len:64 );
    ]
  in
  List.iter
    (fun (what, copy) ->
      copy ();
      let words =
        minor_words (fun () ->
            for _ = 1 to 2000 do
              copy ()
            done)
      in
      Alcotest.(check (float 0.)) (what ^ ": minor words per copy") 0.
        ((words -. idle) /. 2000.))
    copies;
  (* the hypervisor's per-op work: a grant-checked copy allocates only
     the requested-op record its caller builds, and the per-VM lookups
     every forwarded op makes allocate nothing *)
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(4 * mib) in
  let table = Hyp.setup_grant_table hyp guest in
  let grant_ref =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 64 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref } in
  Hyp.register_process hyp guest ~pid:1 ~pt;
  let per_op =
    [
      ( "64-byte Hyp.copy_from_process_into", 3.,
        fun () -> Hyp.copy_from_process_into hyp req ~gva:0x1000 ~dst:small ~dst_off:0 ~len:64 );
      ( "register_process of a registered pid", 0.,
        fun () -> Hyp.register_process hyp guest ~pid:1 ~pt );
      ( "grant_table_of", 0.,
        fun () -> ignore (Sys.opaque_identity (Hyp.grant_table_of hyp guest)) );
    ]
  in
  List.iter
    (fun (what, bound, op) ->
      op ();
      let words =
        minor_words (fun () ->
            for _ = 1 to 2000 do
              op ()
            done)
      in
      let per_call = (words -. idle) /. 2000. in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words per call, at most %.0f" what per_call bound)
        true (per_call <= bound))
    per_op

(* ---- held view translations equal fresh ones ---- *)

(* One side of the oracle: a hypervisor with one VM and a 3-page region
   mapped rw.  Two sides built alike get equal frames and addresses. *)
let oracle_side () =
  let hyp = make_hyp () in
  let vm = Hyp.create_vm hyp ~name:"vm" ~kind:Vm.Guest ~mem_bytes:(4 * mib) in
  let region = Shared_page.allocate ~pages:3 (Hyp.phys hyp) in
  let gpa = Shared_page.map_into region vm ~perms:Memory.Perm.rw in
  (hyp, vm, gpa, Shared_page.view_of region vm)

(* What one access did: its value, or its fault's constructor, address
   and access kind. *)
let outcome f =
  let fault kind (i : Memory.Fault.info) =
    Format.asprintf "%s at 0x%x (%a)" kind i.Memory.Fault.addr Memory.Perm.pp_access
      i.Memory.Fault.access
  in
  match f () with
  | v -> v
  | exception Memory.Fault.Ept_violation i -> fault "Ept_violation" i
  | exception Memory.Fault.Page_fault i -> fault "Page_fault" i
  | exception Memory.Fault.Bus_error i -> fault "Bus_error" i

let counts hyp =
  let a = Hyp.audit hyp in
  Printf.sprintf "hits %d misses %d walks %d" (Audit.tlb_hits a) (Audit.tlb_misses a)
    (Audit.walks_performed a)

(* ---- one translation, two address spaces ---- *)

(* The guest-physical space and a process table share the TLB lookup;
   only a miss branches, into one walk or two.  The gva and the gpa
   name one page, yet each space keeps its own entry. *)
let test_translate_both_spaces () =
  let hyp, _driver, guest, pt, _table = driver_and_guest () in
  let gva = 0x1000 in
  let gpa = Memory.Guest_pt.translate pt ~gva ~access:Memory.Perm.Read in
  let counted f =
    let a = Hyp.audit hyp in
    let h = Audit.tlb_hits a and m = Audit.tlb_misses a and w = Audit.walks_performed a in
    f ();
    Printf.sprintf "hits %d misses %d walks %d" (Audit.tlb_hits a - h)
      (Audit.tlb_misses a - m)
      (Audit.walks_performed a - w)
  in
  let via_gpa () = ignore (Vm.read_u32 guest ~pt:Vm.no_pt ~addr:gpa) in
  let via_gva () = ignore (Vm.read_u32 guest ~pt ~addr:gva) in
  Alcotest.(check string) "cold through no_pt: one miss, one EPT walk"
    "hits 0 misses 1 walks 1" (counted via_gpa);
  Alcotest.(check string) "cold through a process table: one miss, two walks"
    "hits 0 misses 1 walks 2" (counted via_gva);
  Alcotest.(check string) "warm through either: hits only" "hits 2 misses 0 walks 0"
    (counted (fun () ->
         via_gpa ();
         via_gva ()));
  Alcotest.(check int) "nothing ever maps into no_pt" 0
    (Memory.Guest_pt.generation Vm.no_pt)

(* A seeded run applies each step to two identical machines: one
   accesses the region through a view, which holds its translations,
   the other makes the same access through the VM's per-access path at
   the same address.  EPT permission changes and TLB flushes land
   between accesses.  Every step must give the same value or fault,
   and the same TLB hits, misses and walks. *)
let test_held_translations_match_fresh () =
  let seed = 25 and steps = 20_000 in
  let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
  let hyp_v, vm_v, gpa, view = oracle_side () in
  let hyp_f, vm_f, gpa_f, _ = oracle_side () in
  Alcotest.(check int) "both regions at one address" gpa gpa_f;
  let size = 3 * Memory.Addr.page_size in
  let offset len = Sim.Rng.int rng (size - len + 1) in
  let bytes n = Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
  let both what on_view on_fresh = (what, outcome on_view, outcome on_fresh) in
  for step = 1 to steps do
    let what, got_view, got_fresh =
      match Sim.Rng.int rng 20 with
      | 0 ->
          let page = Sim.Rng.int rng 3 in
          let perms =
            [| Memory.Perm.r; Memory.Perm.rw; Memory.Perm.none |].(Sim.Rng.int rng 3)
          in
          let set vm () =
            Memory.Ept.set_perms (Vm.ept vm)
              ~gpa:(gpa + (page * Memory.Addr.page_size))
              ~perms;
            ""
          in
          both (Printf.sprintf "set_perms page %d" page) (set vm_v) (set vm_f)
      | 1 ->
          let flush vm () = Vm.flush_tlb vm; "" in
          both "flush" (flush vm_v) (flush vm_f)
      | _ -> (
          match Sim.Rng.int rng 5 with
          | 0 ->
              let o = offset 4 in
              both
                (Printf.sprintf "read_u32 %d" o)
                (fun () -> string_of_int (view.Shared_page.read_u32 ~offset:o))
                (fun () -> string_of_int (Vm.read_u32 vm_f ~pt:Vm.no_pt ~addr:(gpa + o)))
          | 1 ->
              let o = offset 4 and v = Sim.Rng.int rng 0x1_0000_0000 in
              both
                (Printf.sprintf "write_u32 %d" o)
                (fun () -> view.Shared_page.write_u32 ~offset:o v; "")
                (fun () -> Vm.write_u32 vm_f ~pt:Vm.no_pt ~addr:(gpa + o) v; "")
          | 2 ->
              let o = offset 8 in
              both
                (Printf.sprintf "read_u64 %d" o)
                (fun () -> Int64.to_string (view.Shared_page.read_u64 ~offset:o))
                (fun () ->
                  Int64.to_string (Vm.read_u64 vm_f ~pt:Vm.no_pt ~addr:(gpa + o)))
          | 3 ->
              let len = 1 + Sim.Rng.int rng 1024 in
              let o = offset len in
              both
                (Printf.sprintf "read_into %d+%d" o len)
                (fun () ->
                  let dst = Bytes.create len in
                  view.Shared_page.read_into ~offset:o ~len dst;
                  Bytes.to_string dst)
                (fun () ->
                  let dst = Bytes.create len in
                  Vm.read_into vm_f ~pt:Vm.no_pt ~addr:(gpa + o) ~dst ~dst_off:0 ~len;
                  Bytes.to_string dst)
          | _ ->
              let data = bytes (1 + Sim.Rng.int rng 64) in
              let o = offset (Bytes.length data) in
              both
                (Printf.sprintf "write %d+%d" o (Bytes.length data))
                (fun () -> view.Shared_page.write ~offset:o data; "")
                (fun () -> Vm.write vm_f ~pt:Vm.no_pt ~addr:(gpa + o) data; ""))
    in
    if got_view <> got_fresh then
      Alcotest.failf "seed %d step %d, %s: view gave %S, per-access %S" seed step what
        got_view got_fresh;
    if counts hyp_v <> counts hyp_f then
      Alcotest.failf "seed %d step %d, %s: view counted %s, per-access %s" seed step what
        (counts hyp_v) (counts hyp_f)
  done;
  Alcotest.(check bool) "the run made TLB hits" true
    (Audit.tlb_hits (Hyp.audit hyp_v) > steps / 4)

(* ---- colliding pairs never share an entry ---- *)

let tlb_entry (space, vfn) spn =
  {
    Memory.Tlb.space;
    vfn;
    spn;
    pt_perms = Memory.Perm.rwx;
    ept_perms = Memory.Perm.rwx;
    pt_gen = 0;
    ept_gen = 0;
  }

let tlb_lookup tlb (space, vfn) =
  Memory.Tlb.lookup tlb ~space ~vfn ~access:Memory.Perm.Read ~pt_gen:0 ~ept_gen:0

let test_colliding_pairs_no_alias () =
  let module Tlb = Memory.Tlb in
  let tlb = Tlb.create () in
  (* 301 pairs, one per space, all hashing alike: one probe sequence,
     long enough to make the table grow twice *)
  let target = Tlb.hash ~space:1 ~vfn:5 in
  let pairs = List.init 301 (fun s -> (s, target lxor Tlb.hash ~space:s ~vfn:0)) in
  List.iter
    (fun (space, vfn) ->
      Alcotest.(check int) "pairs share a hash" target (Tlb.hash ~space ~vfn))
    pairs;
  let kept = List.filteri (fun i _ -> i < 300) pairs and absent = List.nth pairs 300 in
  List.iter (fun ((space, _) as p) -> Tlb.install tlb (tlb_entry p (1000 + space))) kept;
  Alcotest.(check int) "every pair kept" 300 (Tlb.entry_count tlb);
  List.iter
    (fun ((space, _) as p) ->
      Alcotest.(check int) "each pair translates to its own frame" (1000 + space)
        (tlb_lookup tlb p))
    kept;
  Alcotest.(check int) "a colliding pair never installed misses" Tlb.miss
    (tlb_lookup tlb absent);
  (* a pair that differs from an installed one in its space alone, or
     its page alone, with a hash equal below bit 20 (tables stay under
     2^16 slots) walks the same probe sequence and must still miss *)
  let beyond = 1 lsl 20 in
  let space, vfn = List.nth kept 150 in
  List.iter
    (fun (space, vfn) ->
      Alcotest.(check int) "same probe start" (target land (beyond - 1))
        (Tlb.hash ~space ~vfn land (beyond - 1));
      Alcotest.(check int) "one field differs: miss" Tlb.miss (tlb_lookup tlb (space, vfn)))
    [ (space + beyond, vfn); (space, vfn lxor beyond) ];
  Tlb.install tlb (tlb_entry (List.hd kept) 7);
  Alcotest.(check int) "a refill replaces in place" 7 (tlb_lookup tlb (List.hd kept));
  Alcotest.(check int) "without adding an entry" 300 (Tlb.entry_count tlb)

let test_max_entries_resets () =
  let module Tlb = Memory.Tlb in
  let tlb = Tlb.create ~max_entries:4 () in
  let pairs = List.init 5 (fun i -> (1, i)) in
  List.iteri (fun i p -> Tlb.install tlb (tlb_entry p (100 + i))) pairs;
  Alcotest.(check int) "the fifth fill reset the cache first" 1 (Tlb.entry_count tlb);
  Alcotest.(check int) "earlier entries are gone" Tlb.miss (tlb_lookup tlb (1, 0));
  Alcotest.(check int) "the fifth is cached" 104 (tlb_lookup tlb (1, 4))

(* ---- a grant stops authorising once released or revoked ---- *)

let test_grant_refused_after_release () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 64 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 in
  Grant_table.release table r;
  Alcotest.(check bool) "released grant no longer authorises" true
    (match Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 with
    | _ -> false
    | exception Hyp.Rejected _ -> true)

let test_grant_refused_after_revoke_all () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 64 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 in
  let (_ : int) = Grant_table.revoke_all table in
  Alcotest.(check bool) "revoked grant no longer authorises" true
    (match Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 with
    | _ -> false
    | exception Hyp.Rejected _ -> true)

(* ---- unmap hypercall caller validation (the PR's bugfix) ---- *)

let test_unmap_guest_caller_rejected () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x40000000 in
  let (_ : Hyp.request) = map_device_page hyp driver guest pt table ~gva in
  let evil = { Hyp.caller = guest; target = guest; pt; grant_ref = 0 } in
  Alcotest.(check bool) "guest cannot unmap via the API" true
    (match Hyp.unmap_page_from_process hyp evil ~gva with
    | () -> false
    | exception Hyp.Rejected _ -> true);
  Alcotest.(check bool) "mapping survived the refused unmap" true
    (Hyp.mapped_via_hypervisor hyp ~target:guest ~pt ~gva)

let test_unmap_dead_driver_rejected () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x40000000 in
  let req = map_device_page hyp driver guest pt table ~gva in
  Hyp.kill_vm hyp driver;
  Alcotest.(check bool) "dead driver cannot unmap" true
    (match Hyp.unmap_page_from_process hyp req ~gva with
    | () -> false
    | exception Hyp.Rejected _ -> true)

let test_unmap_counted_as_hypercall () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x40000000 in
  let req = map_device_page hyp driver guest pt table ~gva in
  let before = (Hyp.audit hyp).Audit.hypercalls in
  Hyp.unmap_page_from_process hyp req ~gva;
  Alcotest.(check int) "unmap audited as a hypercall" (before + 1)
    (Hyp.audit hyp).Audit.hypercalls

let suites =
  [
    ( "tlb.invalidation",
      [
        Alcotest.test_case "stale after guest-PT unmap" `Quick
          test_stale_after_guest_pt_unmap;
        Alcotest.test_case "stale after EPT set_perms" `Quick
          test_stale_after_ept_set_perms;
        Alcotest.test_case "stale after unmap hypercall" `Quick
          test_stale_after_unmap_page_from_process;
        Alcotest.test_case "stale after teardown" `Quick
          test_stale_after_teardown_vm_mappings;
        Alcotest.test_case "kill_vm flushes" `Quick test_kill_vm_flushes_tlb;
        Alcotest.test_case "held view translations equal fresh ones" `Quick
          test_held_translations_match_fresh;
        Alcotest.test_case "one translate, two address spaces" `Quick
          test_translate_both_spaces;
      ] );
    ( "tlb.hit_rate",
      [
        Alcotest.test_case "second copy all hits" `Quick test_second_copy_all_hits;
        Alcotest.test_case "hit rate > 90%" `Quick test_hit_rate_above_90_percent;
        Alcotest.test_case "hot page allocates nothing" `Quick test_hot_page_no_alloc;
        Alcotest.test_case "colliding pairs no alias" `Quick test_colliding_pairs_no_alias;
        Alcotest.test_case "max_entries resets" `Quick test_max_entries_resets;
      ] );
    ( "tlb.grant_cache",
      [
        Alcotest.test_case "release invalidates" `Quick
          test_grant_refused_after_release;
        Alcotest.test_case "revoke_all invalidates" `Quick
          test_grant_refused_after_revoke_all;
      ] );
    ( "tlb.unmap_validation",
      [
        Alcotest.test_case "guest caller rejected" `Quick
          test_unmap_guest_caller_rejected;
        Alcotest.test_case "dead driver rejected" `Quick
          test_unmap_dead_driver_rejected;
        Alcotest.test_case "unmap audited" `Quick test_unmap_counted_as_hypercall;
      ] );
  ]
