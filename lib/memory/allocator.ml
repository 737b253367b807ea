(** Page-granular address-space allocator.

    Used for guest-physical frame allocation inside a VM and for
    carving virtual-address ranges out of a process address space.
    Beyond plain allocate/free it answers the hypervisor's question
    from §5.2: "find a guest physical page address not used by the
    guest OS" — pages the guest never allocated are exactly the unused
    ones, and the hypervisor additionally reserves them so the guest
    cannot allocate them later while they back an mmap. *)

type t = {
  base_pfn : int;
  limit_pfn : int; (* exclusive *)
  mutable next_pfn : int;
  mutable free : int list; (* freed pfns, reusable *)
  reserved : (int, unit) Hashtbl.t; (* taken out-of-band (hypervisor) *)
}

let create ~base ~size =
  if not (Addr.is_page_aligned base && Addr.is_page_aligned size) then
    invalid_arg "Allocator.create: unaligned";
  {
    base_pfn = Addr.pfn base;
    limit_pfn = Addr.pfn (base + size);
    next_pfn = Addr.pfn base;
    free = [];
    reserved = Hashtbl.create 16;
  }

let rec alloc_page t =
  match t.free with
  | pfn :: rest ->
      t.free <- rest;
      if Hashtbl.mem t.reserved pfn then alloc_page t else Addr.of_pfn pfn
  | [] ->
      let rec bump () =
        if t.next_pfn >= t.limit_pfn then raise Out_of_memory
        else begin
          let pfn = t.next_pfn in
          t.next_pfn <- pfn + 1;
          if Hashtbl.mem t.reserved pfn then bump () else Addr.of_pfn pfn
        end
      in
      bump ()

(** Allocate [n] contiguous pages (always from the bump region, the
    free list is not coalesced). *)
let alloc_range t n =
  if n <= 0 then invalid_arg "Allocator.alloc_range";
  (* Skip over any reserved pages so the range is truly free. *)
  let rec find start =
    if start + n > t.limit_pfn then raise Out_of_memory;
    let rec clear i = i >= n || ((not (Hashtbl.mem t.reserved (start + i))) && clear (i + 1)) in
    if clear 0 then start else find (start + 1)
  in
  let start = find t.next_pfn in
  t.next_pfn <- start + n;
  Addr.of_pfn start

let free_page t addr =
  let pfn = Addr.pfn addr in
  if pfn < t.base_pfn || pfn >= t.limit_pfn then
    invalid_arg "Allocator.free_page: outside region";
  t.free <- pfn :: t.free

(** Claim a page address the normal allocator has not handed out and
    will never hand out while reserved.  The hypervisor uses this to
    back guest mmaps with unused guest-physical addresses. *)
let reserve_unused t =
  if t.next_pfn >= t.limit_pfn then raise Out_of_memory;
  (* Take from the top of the region, far from the bump pointer, so
     reservation and ordinary allocation interleave gracefully. *)
  let rec from_top pfn =
    if pfn < t.next_pfn then raise Out_of_memory
    else if Hashtbl.mem t.reserved pfn then from_top (pfn - 1)
    else pfn
  in
  let pfn = from_top (t.limit_pfn - 1) in
  Hashtbl.replace t.reserved pfn ();
  Addr.of_pfn pfn

(** Contiguous variant of {!reserve_unused}: claims [n] consecutive
    unused pages (device BAR apertures need contiguous guest-physical
    ranges). *)
let reserve_unused_range t n =
  if n <= 0 then invalid_arg "Allocator.reserve_unused_range";
  let fits start =
    start >= t.next_pfn
    &&
    let rec clear i = i >= n || ((not (Hashtbl.mem t.reserved (start + i))) && clear (i + 1)) in
    clear 0
  in
  let rec from_top start =
    if start < t.next_pfn then raise Out_of_memory
    else if fits start then start
    else from_top (start - 1)
  in
  let start = from_top (t.limit_pfn - n) in
  for i = 0 to n - 1 do
    Hashtbl.replace t.reserved (start + i) ()
  done;
  Addr.of_pfn start

let unreserve t addr = Hashtbl.remove t.reserved (Addr.pfn addr)
