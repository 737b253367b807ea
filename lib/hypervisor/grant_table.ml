(** Grant table: the frontend's declaration of legitimate memory
    operations (§4.1, §5.1).

    The table is a single page shared between a guest VM and the
    hypervisor.  Before forwarding a file operation, the CVD frontend
    stores the operation's legitimate memory operations as a group of
    entries and obtains a {e grant reference} (the index of the group's
    first slot).  The backend attaches that reference to every
    hypervisor memory-operation request; the hypervisor validates the
    request against the referenced entries with a bounded scan of the
    page as it stands.

    Entry layout (24 bytes, 170 slots per 4 KiB page):
    {v
      u8  kind      0=free 1=copy_to_user 2=copy_from_user 3=map
      u8  flags     bit0: last entry of the group
      u16 (pad)
      u32 len
      u64 addr      guest virtual address
      u64 (pad)
    v}
    The first 16 bytes are the entry's record: the frontend writes it
    in one access and the hypervisor reads it in one access into its
    own copy, deciding from that copy alone (a single fetch). *)

type op =
  | Copy_to_user of { addr : int; len : int } (* driver writes process memory *)
  | Copy_from_user of { addr : int; len : int } (* driver reads process memory *)
  | Map_page of { addr : int; len : int } (* map device/system pages at gva *)

let entry_size = 24
let record_size = 16
let capacity = Memory.Addr.page_size / entry_size

type t = {
  guest : Shared_page.view; (* frontend's mapping *)
  hyp : Shared_page.view; (* hypervisor's direct view *)
  (* Each side's private copy of one entry record, filled and consumed
     with no suspension point in between: the frontend encodes into
     [guest_rec] right before its slot write, the hypervisor decodes
     [hyp_rec] right after its slot read. *)
  guest_rec : bytes;
  hyp_rec : bytes;
  (* Outstanding-entry quota: a guest may be capped below the physical
     table capacity, bounding how much validation state it can pin.
     [active] mirrors the non-free slot count (declare, release and
     revoke_all keep it). *)
  mutable quota : int;
  mutable active : int;
  mutable quota_breaches : int;
  (* Memory operations the hypervisor refused against this table: the
     guest's own grant-violation count, which the backend scores. *)
  mutable violations : int;
}

exception Table_full

exception Quota_exceeded

let create phys ~guest_vm =
  let page = Shared_page.allocate phys in
  (* The guest maps its grant table read/write; the hypervisor reads it
     directly. *)
  let (_ : int) = Shared_page.map_into page guest_vm ~perms:Memory.Perm.rw in
  {
    guest = Shared_page.view_of page guest_vm;
    hyp = Shared_page.hypervisor_view page;
    guest_rec = Bytes.create record_size;
    hyp_rec = Bytes.create record_size;
    quota = capacity;
    active = 0;
    quota_breaches = 0;
    violations = 0;
  }

let set_quota t q =
  if q < 1 || q > capacity then invalid_arg "Grant_table.set_quota";
  t.quota <- q

let quota t = t.quota
let quota_breaches t = t.quota_breaches
let violations t = t.violations
let note_violation t = t.violations <- t.violations + 1

let kind_code = function
  | Copy_to_user _ -> 1
  | Copy_from_user _ -> 2
  | Map_page _ -> 3

let op_addr = function
  | Copy_to_user { addr; _ } | Copy_from_user { addr; _ } | Map_page { addr; _ } ->
      addr

let op_len = function
  | Copy_to_user { len; _ } | Copy_from_user { len; _ } | Map_page { len; _ } -> len

(* An entry's first word: its kind in the low byte, [last_flag] set on
   the group's final entry.  Only kinds 1-3 name an operation. *)
let last_flag = 0x100

let is_op kind = kind >= 1 && kind <= 3

let rec_word r = Int32.to_int (Bytes.get_int32_le r 0)
let rec_len r = Int32.to_int (Bytes.get_int32_le r 4) land 0xffffffff

let write_entry t ~slot ~op ~last =
  let r = t.guest_rec in
  Bytes.set_int32_le r 0 (Int32.of_int (kind_code op lor if last then last_flag else 0));
  Bytes.set_int32_le r 4 (Int32.of_int (op_len op));
  Bytes.set_int64_le r 8 (Int64.of_int (op_addr op));
  t.guest.Shared_page.write ~offset:(slot * entry_size) r

let read_entry t ~slot =
  let r = t.guest_rec in
  t.guest.Shared_page.read_into ~offset:(slot * entry_size) ~len:record_size r;
  let word = rec_word r in
  let kind = word land 0xff and last = word land last_flag <> 0 in
  let len = rec_len r and addr = Int64.to_int (Bytes.get_int64_le r 8) in
  let op =
    match kind with
    | 0 -> None
    | 1 -> Some (Copy_to_user { addr; len })
    | 2 -> Some (Copy_from_user { addr; len })
    | 3 -> Some (Map_page { addr; len })
    | _ -> None
  in
  (op, last)

let slot_free (view : Shared_page.view) slot =
  view.Shared_page.read_u32 ~offset:(slot * entry_size) land 0xff = 0

(* ---- frontend side ---- *)

(** Declare a group of operations; returns the grant reference. *)
let declare t ops =
  (match ops with [] -> invalid_arg "Grant_table.declare: empty group" | _ :: _ -> ());
  let n = List.length ops in
  (* Quota check only when the guest is capped below the physical
     table: at full quota an overflowing declare is simply Table_full,
     as before quotas existed. *)
  if t.quota < capacity && t.active + n > t.quota then begin
    t.quota_breaches <- t.quota_breaches + 1;
    raise Quota_exceeded
  end;
  (* first-fit scan for n contiguous free slots *)
  let rec fits start i =
    i >= n || (slot_free t.guest (start + i) && fits start (i + 1))
  in
  let rec find start =
    if start + n > capacity then raise Table_full
    else if fits start 0 then start
    else find (start + 1)
  in
  let start = find 0 in
  List.iteri (fun i op -> write_entry t ~slot:(start + i) ~op ~last:(i = n - 1)) ops;
  t.active <- t.active + n;
  start

(** Release a group once its file operation has completed: free each
    slot from [grant_ref] through the one flagged last, reading only
    its kind and flag in place. *)
let release t grant_ref =
  let rec go slot =
    if slot < capacity then begin
      let offset = slot * entry_size in
      let word = t.guest.Shared_page.read_u32 ~offset in
      if is_op (word land 0xff) then t.active <- Int.max 0 (t.active - 1);
      t.guest.Shared_page.write_u32 ~offset 0;
      if word land last_flag = 0 then go (slot + 1)
    end
  in
  if grant_ref < 0 || grant_ref >= capacity then
    invalid_arg "Grant_table.release: bad reference";
  go grant_ref

(** Revoke every outstanding declaration at once (driver-VM crash
    recovery: nothing the dead backend held may stay authorised).
    Returns the number of entries cleared. *)
let revoke_all t =
  let cleared = ref 0 in
  for slot = 0 to capacity - 1 do
    if not (slot_free t.guest slot) then begin
      t.guest.Shared_page.write_u32 ~offset:(slot * entry_size) 0;
      incr cleared
    end
  done;
  t.active <- 0;
  !cleared

(** Outstanding (non-free) entries — 0 once every grant is released
    or revoked. *)
let active_entries t =
  let n = ref 0 in
  for slot = 0 to capacity - 1 do
    if not (slot_free t.guest slot) then incr n
  done;
  !n

(* ---- checkpoint / restore (planned driver-VM handoff) ---- *)

(** Checkpoint every outstanding declaration: [(grant_ref, group)] for
    each group head, in slot order.  The table itself survives a
    driver-VM swap (it is shared guest<->hypervisor, the driver VM
    never maps it), so the snapshot exists to {e re-validate} the page
    on restore, not to rebuild it. *)
let snapshot t =
  let rec groups slot acc =
    if slot >= capacity then List.rev acc
    else if slot_free t.guest slot then groups (slot + 1) acc
    else begin
      (* walk to the end of this group *)
      let rec span s ops =
        match read_entry t ~slot:s with
        | None, _ -> (s, List.rev ops)
        | Some op, true -> (s + 1, List.rev (op :: ops))
        | Some op, false -> span (s + 1) (op :: ops)
      in
      let next, ops = span slot [] in
      groups next ((slot, ops) :: acc)
    end
  in
  groups 0 []

(** Re-validate the live table against a checkpoint: any outstanding
    group that does not exactly match the snapshot's record — mutated
    between checkpoint and restore, or appeared from nowhere — is
    revoked, so the successor driver VM only honours declarations the
    departed instance could prove.  Returns the number of groups
    revoked. *)
let verify_snapshot t snap =
  let live = snapshot t in
  let revoked = ref 0 in
  List.iter
    (fun (grant_ref, ops) ->
      if not (List.mem (grant_ref, ops) snap) then begin
        release t grant_ref;
        incr revoked
      end)
    live;
  !revoked

(* ---- hypervisor side ---- *)

(* Does the record in [r] span [addr, addr + len)?  The comparisons
   cannot overflow: [addr - decl_addr] and [decl_len - len] are both
   in [0, max_int] once the first three tests pass.  The address is
   decoded as two 32-bit halves, which keeps the check free of boxed
   integers; one whose 64 bits do not fit a non-negative [int] lies
   past every request, so it spans nothing. *)
let spans r ~addr ~len =
  let decl_len = rec_len r
  and lo = Int32.to_int (Bytes.get_int32_le r 8) land 0xffffffff
  and hi = Int32.to_int (Bytes.get_int32_le r 12) land 0xffffffff in
  hi < 0x4000_0000
  &&
  let decl_addr = lo lor (hi lsl 32) in
  len >= 0 && addr >= decl_addr && len <= decl_len && addr - decl_addr <= decl_len - len

(* Scan the group from [slot] through the hypervisor's view, one record
   read into the hypervisor's copy per entry: it ends at the entry
   flagged last, or before the first entry that names no operation. *)
let rec covers t ~kind ~addr ~len slot =
  slot < capacity
  &&
  let r = t.hyp_rec in
  t.hyp.Shared_page.read_into ~offset:(slot * entry_size) ~len:record_size r;
  let word = rec_word r in
  let k = word land 0xff in
  is_op k
  && ((k = kind && spans r ~addr ~len)
     || (word land last_flag = 0 && covers t ~kind ~addr ~len (slot + 1)))

(** Does the group under [grant_ref] cover [requested]?  A request is
    covered when it falls inside a declared entry of the same kind —
    drivers may copy a prefix or a piece of a declared buffer.  Reads
    the table in place, so a released or revoked group stops
    authorising the moment its slots are cleared. *)
let authorises t ~grant_ref ~requested =
  grant_ref >= 0
  && covers t ~kind:(kind_code requested) ~addr:(op_addr requested)
       ~len:(op_len requested) grant_ref

let pp_op ppf = function
  | Copy_to_user { addr; len } -> Fmt.pf ppf "copy_to_user(0x%x, %d)" addr len
  | Copy_from_user { addr; len } -> Fmt.pf ppf "copy_from_user(0x%x, %d)" addr len
  | Map_page { addr; len } -> Fmt.pf ppf "map_page(0x%x, %d)" addr len
