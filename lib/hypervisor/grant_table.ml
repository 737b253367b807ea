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
    v} *)

type op =
  | Copy_to_user of { addr : int; len : int } (* driver writes process memory *)
  | Copy_from_user of { addr : int; len : int } (* driver reads process memory *)
  | Map_page of { addr : int; len : int } (* map device/system pages at gva *)

let entry_size = 24
let capacity = Memory.Addr.page_size / entry_size

type t = {
  guest : Shared_page.view; (* frontend's mapping *)
  hyp : Shared_page.view; (* hypervisor's direct view *)
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

let write_entry (view : Shared_page.view) ~slot ~op ~last =
  let base = slot * entry_size in
  view.Shared_page.write_u32 ~offset:base
    (kind_code op lor (if last then last_flag else 0));
  view.Shared_page.write_u32 ~offset:(base + 4) (op_len op);
  view.Shared_page.write_u64 ~offset:(base + 8) (Int64.of_int (op_addr op))

let read_entry (view : Shared_page.view) ~slot =
  let base = slot * entry_size in
  let word = view.Shared_page.read_u32 ~offset:base in
  let kind = word land 0xff and last = word land last_flag <> 0 in
  let len = view.Shared_page.read_u32 ~offset:(base + 4) in
  let addr = Int64.to_int (view.Shared_page.read_u64 ~offset:(base + 8)) in
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
  if ops = [] then invalid_arg "Grant_table.declare: empty group";
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
  List.iteri
    (fun i op -> write_entry t.guest ~slot:(start + i) ~op ~last:(i = n - 1))
    ops;
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
      if is_op (word land 0xff) then t.active <- max 0 (t.active - 1);
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
        match read_entry t.guest ~slot:s with
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

(* Does the entry at [base] span [addr, addr + len)?  Its address is
   read as two 32-bit halves, which keeps the check free of boxed
   integers. *)
let spans (view : Shared_page.view) ~base ~addr ~len =
  let decl_len = view.Shared_page.read_u32 ~offset:(base + 4)
  and decl_addr =
    view.Shared_page.read_u32 ~offset:(base + 8)
    lor (view.Shared_page.read_u32 ~offset:(base + 12) lsl 32)
  in
  len >= 0 && addr >= decl_addr && addr + len <= decl_addr + decl_len

(* Scan the group from [slot] through the hypervisor's view: it ends
   at the entry flagged last, or before the first entry that names no
   operation. *)
let rec covers (view : Shared_page.view) ~kind ~addr ~len slot =
  slot < capacity
  &&
  let base = slot * entry_size in
  let word = view.Shared_page.read_u32 ~offset:base in
  let k = word land 0xff in
  is_op k
  && ((k = kind && spans view ~base ~addr ~len)
     || (word land last_flag = 0 && covers view ~kind ~addr ~len (slot + 1)))

(** Does the group under [grant_ref] cover [requested]?  A request is
    covered when it falls inside a declared entry of the same kind —
    drivers may copy a prefix or a piece of a declared buffer.  Reads
    the table in place, so a released or revoked group stops
    authorising the moment its slots are cleared. *)
let authorises t ~grant_ref ~requested =
  grant_ref >= 0
  && covers t.hyp ~kind:(kind_code requested) ~addr:(op_addr requested)
       ~len:(op_len requested) grant_ref

let pp_op ppf = function
  | Copy_to_user { addr; len } -> Fmt.pf ppf "copy_to_user(0x%x, %d)" addr len
  | Copy_from_user { addr; len } -> Fmt.pf ppf "copy_from_user(0x%x, %d)" addr len
  | Map_page { addr; len } -> Fmt.pf ppf "map_page(0x%x, %d)" addr len
