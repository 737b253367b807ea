(** Versioned session snapshots for planned driver-VM handoff (hot
    upgrade, §7.1–§7.2 applied to {e planned} restarts; session
    migration between live driver VMs).

    A snapshot captures exactly the backend-side state a successor
    driver VM needs to keep a guest's open files working — and nothing
    it could not re-derive or re-validate:

    - per-guest open vfds with the device path, fasync/nonblock flags
      and mirrored VMA layout of each file;
    - the containment record (misbehavior counters, score, quarantine
      flag) so a hostile guest does not launder its history through an
      upgrade;
    - the outstanding grant-table groups, checkpointed so the restore
      path can {e verify} the shared table rather than trust it.

    What is deliberately {e not} in a snapshot: device-internal state
    (drivers are re-entered through [fop_open], exactly as after a
    crash reboot — the paper's §7.1 recovery model), hypervisor EPT /
    guest-leaf mappings (keyed by the guest, they survive the swap and
    are re-validated in place), and transport state (rings are rebuilt
    empty; in-flight operations drain or are replayed by the
    frontend).

    {!encode} writes the v1 layout field by field; {!decode} reads it
    back in the same order.  {!decode} distrusts the blob the way
    {!Proto.decode_request} distrusts a descriptor: it checks the
    bytes are there before each read and bounds every count, id and
    length as soon as it is read, raising {!Malformed} rather than
    producing an undefined session. *)

type file_rec = {
  fr_vfd : int;
  fr_path : string;
  fr_fasync : bool;  (** had live SIGIO subscribers *)
  fr_nonblock : bool;
  fr_vmas : (int * int * int) list;  (** (gva, len, pgoff), oldest first *)
}

type link_snap = {
  ls_guest_vm_id : int;
  ls_next_vfd : int;
  ls_ops_served : int;
  ls_malformed : int;
  ls_rejected : int;
  ls_grant_faults : int;
  ls_quota_breaches : int;
  ls_score : int;
  ls_quarantined : bool;
  ls_files : file_rec list;  (** ascending vfd *)
  ls_grants : (int * Hypervisor.Grant_table.op list) list;
      (** outstanding grant-table groups, from {!Hypervisor.Grant_table.snapshot} *)
}

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* Format version history:
   1 — initial: header, file table, grant table. *)
let magic = 0x50AD1CE1
let version = 1 (* current format; every blob carries its own *)

(* Defensive caps mirroring the live sanitization bounds: a snapshot
   may never describe a session the sanitizer would have refused. *)
let max_files = 1 lsl 20 (* Proto.max_vfd *)
let max_vmas_per_file = 4096
let max_grant_groups = 4096
let max_ops_per_group = 4096

(* The v1 layout, little-endian; test/golden_corpus.ml pins its bytes,
   so [encode] and [decode] must keep this field order. *)
let encode (s : link_snap) : string =
  let b = Buffer.create 256 in
  let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
  let i64 v = Buffer.add_int64_le b (Int64.of_int v) in
  let flag v = u32 (if v then 1 else 0) in
  List.iter u32
    [ magic; version; s.ls_guest_vm_id; s.ls_next_vfd; s.ls_ops_served;
      s.ls_malformed; s.ls_rejected; s.ls_grant_faults; s.ls_quota_breaches;
      s.ls_score ];
  flag s.ls_quarantined;
  u32 (List.length s.ls_files);
  List.iter
    (fun fr ->
      u32 fr.fr_vfd;
      u32 (String.length fr.fr_path);
      Buffer.add_string b fr.fr_path;
      flag fr.fr_fasync;
      flag fr.fr_nonblock;
      u32 (List.length fr.fr_vmas);
      List.iter (fun (gva, len, pgoff) -> i64 gva; i64 len; i64 pgoff) fr.fr_vmas)
    s.ls_files;
  u32 (List.length s.ls_grants);
  List.iter
    (fun (gref, ops) ->
      u32 gref;
      u32 (List.length ops);
      List.iter
        (fun op ->
          let kind, addr, len =
            match op with
            | Hypervisor.Grant_table.Copy_to_user { addr; len } -> (1, addr, len)
            | Hypervisor.Grant_table.Copy_from_user { addr; len } -> (2, addr, len)
            | Hypervisor.Grant_table.Map_page { addr; len } -> (3, addr, len)
          in
          u32 kind;
          i64 addr;
          i64 len)
        ops)
    s.ls_grants;
  Buffer.contents b

(* Every read is sequenced with [let]: OCaml leaves the evaluation
   order of record fields and tuple components unspecified, while
   [List.init] calls its function left to right.  u32 reads are masked
   non-negative, so only upper bounds appear.  i64 reads go through
   [Int64.to_int], which drops bit 63: a word reads negative only when
   bit 62 is set, and the explicit sign checks reject it. *)
let decode (blob : string) : link_snap =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length blob then
      malformed "truncated snapshot at byte %d (need %d more)" !pos n
  in
  let u32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_le blob !pos) land 0xffffffff in
    pos := !pos + 4;
    v
  in
  let i64 () =
    need 8;
    let v = Int64.to_int (String.get_int64_le blob !pos) in
    pos := !pos + 8;
    v
  in
  let flag () = u32 () <> 0 in
  (* a u32 count, id or length, rejected as soon as it exceeds [limit] *)
  let upto limit what =
    let n = u32 () in
    if n > limit then malformed "%s %d" what n;
    n
  in
  let m = u32 () in
  if m <> magic then malformed "bad magic 0x%x" m;
  let v = u32 () in
  if v <> version then malformed "unsupported snapshot version %d" v;
  let ls_guest_vm_id = u32 () in
  let ls_next_vfd = u32 () in
  let ls_ops_served = u32 () in
  let ls_malformed = u32 () in
  let ls_rejected = u32 () in
  let ls_grant_faults = u32 () in
  let ls_quota_breaches = u32 () in
  let ls_score = u32 () in
  let ls_quarantined = flag () in
  let vma _ =
    let gva = i64 () in
    let len = i64 () in
    let pgoff = i64 () in
    if gva < 0 || len < 0 || pgoff < 0 then malformed "negative vma field";
    (gva, len, pgoff)
  in
  let file _ =
    let fr_vfd = upto max_files "vfd" in
    let n = upto 256 "path length" in
    need n;
    let fr_path = String.sub blob !pos n in
    pos := !pos + n;
    let fr_fasync = flag () in
    let fr_nonblock = flag () in
    let fr_vmas = List.init (upto max_vmas_per_file "vma count") vma in
    { fr_vfd; fr_path; fr_fasync; fr_nonblock; fr_vmas }
  in
  let ls_files = List.init (upto max_files "file count") file in
  let op _ =
    let kind = u32 () in
    let addr = i64 () in
    let len = i64 () in
    if addr < 0 || len < 0 then malformed "negative grant field";
    match kind with
    | 1 -> Hypervisor.Grant_table.Copy_to_user { addr; len }
    | 2 -> Hypervisor.Grant_table.Copy_from_user { addr; len }
    | 3 -> Hypervisor.Grant_table.Map_page { addr; len }
    | n -> malformed "grant op kind %d" n
  in
  let group _ =
    let gref = upto (Hypervisor.Grant_table.capacity - 1) "grant ref" in
    let ops = List.init (upto max_ops_per_group "op count") op in
    (gref, ops)
  in
  let ls_grants = List.init (upto max_grant_groups "grant group count") group in
  if !pos <> String.length blob then
    malformed "%d trailing bytes" (String.length blob - !pos);
  {
    ls_guest_vm_id;
    ls_next_vfd;
    ls_ops_served;
    ls_malformed;
    ls_rejected;
    ls_grant_faults;
    ls_quota_breaches;
    ls_score;
    ls_quarantined;
    ls_files;
    ls_grants;
  }
