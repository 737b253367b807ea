(** System physical memory.

    The store is a frame table: an array indexed by system frame
    number (spn), grown geometrically as frames are allocated.  Spns
    are handed out by a bump pointer ([next_spn]) and never reused, so
    an spn is populated exactly when [0 < spn < next_spn]; looking a
    frame up is one bounds check and one array load — no hashing, no
    allocation.  Two kinds of backing exist:
    - [Ram]: an ordinary 4 KiB byte frame, materialised on first use
      (until then the slot reads [Unbacked]);
    - [Mmio]: a device register page whose reads/writes are routed to
      handler callbacks (the GPU register file, the NIC doorbells).

    Contiguous ranges can be reserved for device apertures (a GPU's
    VRAM BAR) so that device memory is system-physically addressable,
    exactly like a PCI BAR on real hardware — this is what lets the
    hypervisor cover device memory with EPT permissions in §4.2. *)

type mmio_handler = {
  mmio_read : offset:int -> len:int -> bytes;
  mmio_write : offset:int -> bytes -> unit;
}

type backing =
  | Ram of Bytes.t
  | Unbacked (* allocated RAM, zero-filled, materialised on first use *)
  | Mmio of mmio_handler

type t = {
  mutable frames : backing array; (* by spn; slots at or past next_spn unused *)
  mutable next_spn : int;
}

let create () = { frames = Array.make 1024 Unbacked; next_spn = 1 }
(* spn 0 is never handed out: a zero address is always a bug. *)

(* Hand out [n] fresh spns; returns the first.  The table doubles until
   it covers them, so VM construction costs one array fill, not a
   table insertion per frame. *)
let reserve t n =
  let base = t.next_spn in
  let next = base + n in
  let cap = Array.length t.frames in
  if next > cap then begin
    let cap = ref cap in
    while !cap < next do
      cap := 2 * !cap
    done;
    let frames = Array.make !cap Unbacked in
    Array.blit t.frames 0 frames 0 base;
    t.frames <- frames
  end;
  t.next_spn <- next;
  base

(** Allocate [n] fresh contiguous RAM frames; returns the base spn.
    Backing bytes are materialised lazily so multi-gigabyte VM RAM
    costs nothing until touched. *)
let alloc_frames t n =
  if n <= 0 then invalid_arg "Phys_mem.alloc_frames";
  reserve t n

let alloc_frame t = alloc_frames t 1

(** Install an MMIO page; returns its spn. *)
let alloc_mmio t handler =
  let spn = reserve t 1 in
  t.frames.(spn) <- Mmio handler;
  spn

let populated t spn = spn > 0 && spn < t.next_spn

let is_mmio t spn =
  populated t spn && match t.frames.(spn) with Mmio _ -> true | Ram _ | Unbacked -> false

let backing t ~spn ~access =
  if not (populated t spn) then
    Fault.bus_error ~addr:(Addr.of_pfn spn) ~access "unpopulated frame"
  else
    match t.frames.(spn) with
    | Unbacked ->
        let b = Ram (Bytes.make Addr.page_size '\000') in
        t.frames.(spn) <- b;
        b
    | b -> b

(** Zero-copy read: blit [len] bytes at system physical address [spa]
    into [dst] at [dst_off].  May cross frame boundaries; no
    intermediate buffer is allocated (the data-plane fast path). *)
let read_into t ~spa ~dst ~dst_off ~len =
  if len < 0 then invalid_arg "Phys_mem.read_into: negative length";
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Phys_mem.read_into: destination range out of bounds";
  let pos = ref dst_off in
  Addr.iter_page_chunks ~addr:spa ~len (fun addr chunk ->
      let spn = Addr.pfn addr and off = Addr.offset addr in
      (match backing t ~spn ~access:Perm.Read with
      | Ram frame -> Bytes.blit frame off dst !pos chunk
      | Unbacked -> assert false (* materialised by [backing] *)
      | Mmio h -> Bytes.blit (h.mmio_read ~offset:off ~len:chunk) 0 dst !pos chunk);
      pos := !pos + chunk)

(** Zero-copy write: blit [len] bytes of [src] from [src_off] to
    system physical address [spa]. *)
let write_from t ~spa ~src ~src_off ~len =
  if len < 0 then invalid_arg "Phys_mem.write_from: negative length";
  if src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg "Phys_mem.write_from: source range out of bounds";
  let pos = ref src_off in
  Addr.iter_page_chunks ~addr:spa ~len (fun addr chunk ->
      let spn = Addr.pfn addr and off = Addr.offset addr in
      (match backing t ~spn ~access:Perm.Write with
      | Ram frame -> Bytes.blit src !pos frame off chunk
      | Unbacked -> assert false (* materialised by [backing] *)
      | Mmio h -> h.mmio_write ~offset:off (Bytes.sub src !pos chunk));
      pos := !pos + chunk)

(** Read [len] bytes at system physical address [spa].  May cross frame
    boundaries. *)
let read t ~spa ~len =
  if len < 0 then invalid_arg "Phys_mem.read: negative length";
  let out = Bytes.create len in
  read_into t ~spa ~dst:out ~dst_off:0 ~len;
  out

(** Write [data] at system physical address [spa]. *)
let write t ~spa data = write_from t ~spa ~src:data ~src_off:0 ~len:(Bytes.length data)

(* Scalar accessors address the backing frame directly — no
   intermediate buffer.  These carry the descriptor-ring doorbell
   path, so a fresh [Bytes] per slot-state poll would be pure harness
   overhead.  Scalars straddling a frame boundary (misaligned by
   design only in tests) fall back to the buffered path. *)

(* The frame a scalar of [width] bytes at [spa] can be accessed in
   directly, or [no_frame] when it straddles a frame or hits MMIO. *)
let no_frame = Bytes.create 0

let[@inline] direct_frame t ~spa ~access ~width =
  if Addr.offset spa + width <= Addr.page_size then
    match backing t ~spn:(Addr.pfn spa) ~access with
    | Ram frame -> frame
    | Unbacked -> assert false (* materialised by [backing] *)
    | Mmio _ -> no_frame
  else no_frame

let read_u8 t ~spa =
  let frame = direct_frame t ~spa ~access:Perm.Read ~width:1 in
  if frame != no_frame then Char.code (Bytes.get frame (Addr.offset spa))
  else Char.code (Bytes.get (read t ~spa ~len:1) 0)

let write_u8 t ~spa v =
  let frame = direct_frame t ~spa ~access:Perm.Write ~width:1 in
  if frame != no_frame then Bytes.set frame (Addr.offset spa) (Char.chr (v land 0xff))
  else write t ~spa (Bytes.make 1 (Char.chr (v land 0xff)))

let read_u32 t ~spa =
  let frame = direct_frame t ~spa ~access:Perm.Read ~width:4 in
  if frame != no_frame then
    Int32.to_int (Bytes.get_int32_le frame (Addr.offset spa)) land 0xffffffff
  else Int32.to_int (Bytes.get_int32_le (read t ~spa ~len:4) 0) land 0xffffffff

let write_u32 t ~spa v =
  let frame = direct_frame t ~spa ~access:Perm.Write ~width:4 in
  if frame != no_frame then Bytes.set_int32_le frame (Addr.offset spa) (Int32.of_int v)
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    write t ~spa b
  end

let read_u64 t ~spa =
  let frame = direct_frame t ~spa ~access:Perm.Read ~width:8 in
  if frame != no_frame then Bytes.get_int64_le frame (Addr.offset spa)
  else Bytes.get_int64_le (read t ~spa ~len:8) 0

let write_u64 t ~spa v =
  let frame = direct_frame t ~spa ~access:Perm.Write ~width:8 in
  if frame != no_frame then Bytes.set_int64_le frame (Addr.offset spa) v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write t ~spa b
  end

(** Zero a whole frame — the hypervisor scrubs protected-region pages
    before recycling them between guests (§5.3 change (i)). *)
let zero_frame t spn =
  match backing t ~spn ~access:Perm.Write with
  | Ram frame -> Bytes.fill frame 0 Addr.page_size '\000'
  | Unbacked -> assert false (* materialised by [backing] *)
  | Mmio _ -> invalid_arg "Phys_mem.zero_frame: MMIO page"
