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

    The v1 wire layout is declared {e once} below as a
    {!Wire_spec.Stream} combinator value ([snap_t]); {!encode} and
    {!decode} are the derived writer and reader over it.  {!decode}
    distrusts the blob the way {!Proto.decode_request} distrusts a
    descriptor: every length and tag check is attached to the field
    that carries it, raising {!Malformed} rather than producing an
    undefined session. *)

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

let op_code : Hypervisor.Grant_table.op -> int = function
  | Hypervisor.Grant_table.Copy_to_user _ -> 1
  | Hypervisor.Grant_table.Copy_from_user _ -> 2
  | Hypervisor.Grant_table.Map_page _ -> 3

let op_fields : Hypervisor.Grant_table.op -> int * int = function
  | Hypervisor.Grant_table.Copy_to_user { addr; len }
  | Hypervisor.Grant_table.Copy_from_user { addr; len }
  | Hypervisor.Grant_table.Map_page { addr; len } ->
      (addr, len)

(* ---- the v1 layout, declared once ----

   Checks are closures raising {!Malformed} directly, attached to the
   field whose wire word they bound; [Wire_spec.Stream] runs them in
   read order.  u32-read counts and refs cannot be negative by the
   DSL's read policy, so only upper bounds appear; 64-bit fields read
   under the u63 policy, so a hostile top-bit-set word surfaces as a
   negative int and is rejected by the explicit checks below. *)

module Ws = Wire_spec.Stream

let vma_t : (int * int * int) Ws.t =
  Ws.conv
    (fun ((gva, len), pgoff) ->
      if len < 0 || gva < 0 || pgoff < 0 then malformed "negative vma field";
      (gva, len, pgoff))
    (fun (gva, len, pgoff) -> ((gva, len), pgoff))
    (Ws.pair (Ws.pair Ws.i64 Ws.i64) Ws.i64)

let file_t : file_rec Ws.t =
  Ws.conv
    (fun ((((fr_vfd, fr_path), fr_fasync), fr_nonblock), fr_vmas) ->
      { fr_vfd; fr_path; fr_fasync; fr_nonblock; fr_vmas })
    (fun fr ->
      ((((fr.fr_vfd, fr.fr_path), fr.fr_fasync), fr.fr_nonblock), fr.fr_vmas))
    (Ws.pair
       (Ws.pair
          (Ws.pair
             (Ws.pair
                (Ws.u32c (fun v -> if v > max_files then malformed "vfd %d" v))
                (Ws.strc (fun n -> if n > 256 then malformed "path length %d" n)))
             Ws.boolean)
          Ws.boolean)
       (Ws.listc
          (fun n -> if n > max_vmas_per_file then malformed "vma count %d" n)
          vma_t))

let grant_op_t : Hypervisor.Grant_table.op Ws.t =
  Ws.conv
    (fun (code, (addr, len)) ->
      if addr < 0 || len < 0 then malformed "negative grant field";
      match code with
      | 1 -> Hypervisor.Grant_table.Copy_to_user { addr; len }
      | 2 -> Hypervisor.Grant_table.Copy_from_user { addr; len }
      | 3 -> Hypervisor.Grant_table.Map_page { addr; len }
      | n -> malformed "grant op kind %d" n)
    (fun op -> (op_code op, op_fields op))
    (Ws.pair Ws.u32 (Ws.pair Ws.i64 Ws.i64))

let grant_group_t : (int * Hypervisor.Grant_table.op list) Ws.t =
  Ws.pair
    (Ws.u32c (fun g ->
         if g >= Hypervisor.Grant_table.capacity then malformed "grant ref %d" g))
    (Ws.listc
       (fun n -> if n > max_ops_per_group then malformed "op count %d" n)
       grant_op_t)

let header_t : (int * int) Ws.t =
  Ws.pair
    (Ws.u32c (fun m -> if m <> magic then malformed "bad magic 0x%x" m))
    (Ws.u32c (fun v ->
         if v <> version then malformed "unsupported snapshot version %d" v))

let counters_t :
    (((int * int) * (int * int)) * ((int * int) * (int * int))) Ws.t =
  Ws.pair
    (Ws.pair (Ws.pair Ws.u32 Ws.u32) (Ws.pair Ws.u32 Ws.u32))
    (Ws.pair (Ws.pair Ws.u32 Ws.u32) (Ws.pair Ws.u32 Ws.u32))

let snap_t : link_snap Ws.t =
  Ws.conv
    (fun ( ( _header,
             ( ( ((ls_guest_vm_id, ls_next_vfd), (ls_ops_served, ls_malformed)),
                 ( (ls_rejected, ls_grant_faults),
                   (ls_quota_breaches, ls_score) ) ),
               ls_quarantined ) ),
           (ls_files, ls_grants) ) ->
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
      })
    (fun s ->
      ( ( (magic, version),
          ( ( ( (s.ls_guest_vm_id, s.ls_next_vfd),
                (s.ls_ops_served, s.ls_malformed) ),
              ( (s.ls_rejected, s.ls_grant_faults),
                (s.ls_quota_breaches, s.ls_score) ) ),
            s.ls_quarantined ) ),
        (s.ls_files, s.ls_grants) ))
    (Ws.pair
       (Ws.pair header_t (Ws.pair counters_t Ws.boolean))
       (Ws.pair
          (Ws.listc (fun n -> if n > max_files then malformed "file count %d" n) file_t)
          (Ws.listc
             (fun n -> if n > max_grant_groups then malformed "grant group count %d" n)
             grant_group_t)))

(* ---- derived codec ---- *)

let encode (snap : link_snap) : string =
  let b = Buffer.create 256 in
  Ws.write b snap_t snap;
  Buffer.contents b

let decode (blob : string) : link_snap =
  let c = Ws.cursor blob in
  let snap =
    (* field checks raise our own Malformed; the stream reader raises
       Wire_spec.Malformed on truncation — map it onto ours so callers
       see a single exception *)
    try Ws.read c snap_t with Wire_spec.Malformed m -> raise (Malformed m)
  in
  if c.Ws.pos <> String.length blob then
    malformed "%d trailing bytes" (String.length blob - c.Ws.pos);
  snap
