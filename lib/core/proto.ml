(** CVD wire protocol.

    File operations and their results are serialised into the shared
    page (§5.1: "the frontend puts the file operation arguments in a
    shared page").  Fixed little-endian encoding; one request and one
    response slot per channel.

    Every message form is declared exactly once, as a {!Wire_spec}
    field spec in {!req_specs} / {!resp_specs}; the encoder, the
    bounds-checked decoder, the post-decode sanitizer and the fuzz
    generator/mutator are all derived from that table.  Adding an
    operation is one spec entry plus the variant shims — not three
    hand-maintained offset copies that can drift. *)

module W = Wire_spec

type request =
  | Ropen of { path : string }
  | Rrelease of { vfd : int }
  | Rread of { vfd : int; buf : int; len : int }
  | Rwrite of { vfd : int; buf : int; len : int }
  | Rioctl of { vfd : int; cmd : int; arg : int64 }
  | Rmmap of { vfd : int; gva : int; len : int; pgoff : int }
  | Rfault of { vfd : int; gva : int }
  | Rmunmap of { vfd : int; gva : int; len : int }
  | Rpoll of { vfd : int; want_in : bool; want_out : bool; timeout_us : float }
  | Rfasync of { vfd : int; on : bool }
  | Rnoop (* the §6.1.1 latency microbenchmark *)
  | Rbatch of request list
      (* io_uring-style multi-op descriptor: one ring slot / one
         doorbell carries a length-prefixed batch of small file ops
         (evdev reads, PCM periods, netmap syncs).  Only fixed-size
         data-path operations may ride in a batch — memory-layout ops
         (open/mmap/fault/munmap) stay singletons — and batches do not
         nest. *)

type response =
  | Rok of int
  | Rerr of int (* positive errno code *)
  | Rpoll_reply of { pollin : bool; pollout : bool }
  | Rbatch_reply of response list
      (* one sub-response per sub-op, in submission order *)

let slot_size = 1024

(* Batch geometry: the multi-op payload must stay below the trace word
   at 1004, and each sub-op record is at most 28 bytes, so 32 sub-ops
   fit with headroom. *)
let max_batch_ops = 32

let w32 = W.w32
let r32 = W.r32

(* header: opcode @0, grant @4, vfd @8, transport sequence number
   @1008, issuing pid @1012 (the hypervisor resolves the guest
   process's page table from it) *)
let pid_off = 1012

(* The per-request sequence number lives in the descriptor itself, so
   a response carries back exactly which attempt it answers: under
   at-least-once retries a late response to a timed-out attempt must
   not be mistaken for the resend's answer.  The channel stamps it at
   publish time (it is transport state, not operation state). *)
let seq_off = 1008

let get_seq b = r32 b seq_off

(* The operation's trace id (Obs tracing), minted by the frontend and
   stamped next to the sequence number so every stage of the pipeline
   — transport, backend, hypervisor — can attribute its spans to the
   forwarded operation it serves.  0 = untraced. *)
let trace_off = 1004

let set_trace b id = w32 b trace_off id
let get_trace b = r32 b trace_off

exception Batch_overflow
exception Malformed = W.Malformed
exception Oversized = W.Oversized

type violation = W.violation = { field : string; detail : string }

let max_vfd = W.max_vfd

(* ---- the spec table: one declaration per message form ---- *)

let fu63 fname off = { W.fname; off; kind = W.Int W.U63 }
let fflag fname off = { W.fname; off; kind = W.Flag }

let vfd_ok =
  W.Vrange { field = "vfd"; min = 0; max = W.Max_vfd; detail = "out of range" }

let open_spec : request W.spec =
  {
    W.op = 1;
    name = "open";
    takes_vfd = false;
    batchable = false;
    fields =
      [
        {
          W.fname = "path";
          off = 16;
          kind = W.Str { len_off = 12; max = 256; reject = "path length" };
        };
      ];
    vchecks =
      [
        W.Vpath { field = "path"; detail = "not a devfs path (or NUL / dot-dot)" };
      ];
    build =
      (fun ~vfd:_ -> function [ W.S path ] -> Ropen { path } | _ -> assert false);
    parts = (function Ropen { path } -> (0, [ W.S path ]) | _ -> assert false);
  }

let release_spec : request W.spec =
  {
    W.op = 2;
    name = "release";
    takes_vfd = true;
    batchable = true;
    fields = [];
    vchecks = [ vfd_ok ];
    build = (fun ~vfd _ -> Rrelease { vfd });
    parts = (function Rrelease { vfd } -> (vfd, []) | _ -> assert false);
  }

let transfer_spec op name make split : request W.spec =
  {
    W.op;
    name;
    takes_vfd = true;
    batchable = true;
    fields = [ fu63 "buf" 16; fu63 "len" 24 ];
    vchecks =
      [
        vfd_ok;
        W.Vrange
          {
            field = "len";
            min = 0;
            max = W.Max_transfer;
            detail = "transfer larger than max_transfer_bytes";
          };
        W.Vrange
          { field = "buf"; min = 0; max = W.No_bound; detail = "negative user address" };
      ];
    build =
      (fun ~vfd -> function
        | [ W.I buf; W.I len ] -> make ~vfd ~buf ~len
        | _ -> assert false);
    parts = split;
  }

let read_spec =
  transfer_spec 3 "read"
    (fun ~vfd ~buf ~len -> Rread { vfd; buf; len })
    (function Rread { vfd; buf; len } -> (vfd, [ W.I buf; W.I len ]) | _ -> assert false)

let write_spec =
  transfer_spec 4 "write"
    (fun ~vfd ~buf ~len -> Rwrite { vfd; buf; len })
    (function
      | Rwrite { vfd; buf; len } -> (vfd, [ W.I buf; W.I len ]) | _ -> assert false)

let ioctl_spec : request W.spec =
  {
    W.op = 5;
    name = "ioctl";
    takes_vfd = true;
    batchable = true;
    fields = [ fu63 "cmd" 16; { W.fname = "arg"; off = 24; kind = W.Raw64 } ];
    vchecks =
      [
        vfd_ok;
        W.Vrange
          {
            field = "cmd";
            min = 0;
            max = W.Lit 0xffff_ffff;
            detail = "not a u32 ioctl number";
          };
      ];
    build =
      (fun ~vfd -> function
        | [ W.I cmd; W.I64 arg ] -> Rioctl { vfd; cmd; arg } | _ -> assert false);
    parts =
      (function
      | Rioctl { vfd; cmd; arg } -> (vfd, [ W.I cmd; W.I64 arg ]) | _ -> assert false);
  }

let mmap_spec : request W.spec =
  {
    W.op = 6;
    name = "mmap";
    takes_vfd = true;
    batchable = false;
    fields = [ fu63 "gva" 16; fu63 "len" 24; fu63 "pgoff" 32 ];
    vchecks =
      [
        vfd_ok;
        W.Vrange
          { field = "len"; min = 1; max = W.Max_mmap; detail = "mmap length out of range" };
        W.Vwrap { base = "gva"; len = "len"; detail = "range wraps" };
        W.Vrange { field = "pgoff"; min = 0; max = W.No_bound; detail = "negative" };
      ];
    build =
      (fun ~vfd -> function
        | [ W.I gva; W.I len; W.I pgoff ] -> Rmmap { vfd; gva; len; pgoff }
        | _ -> assert false);
    parts =
      (function
      | Rmmap { vfd; gva; len; pgoff } -> (vfd, [ W.I gva; W.I len; W.I pgoff ])
      | _ -> assert false);
  }

let fault_spec : request W.spec =
  {
    W.op = 7;
    name = "fault";
    takes_vfd = true;
    batchable = false;
    fields = [ fu63 "gva" 16 ];
    vchecks =
      [ vfd_ok; W.Vrange { field = "gva"; min = 0; max = W.No_bound; detail = "negative" } ];
    build =
      (fun ~vfd -> function [ W.I gva ] -> Rfault { vfd; gva } | _ -> assert false);
    parts = (function Rfault { vfd; gva } -> (vfd, [ W.I gva ]) | _ -> assert false);
  }

let munmap_spec : request W.spec =
  {
    W.op = 8;
    name = "munmap";
    takes_vfd = true;
    batchable = false;
    fields = [ fu63 "gva" 16; fu63 "len" 24 ];
    vchecks =
      [
        vfd_ok;
        W.Vrange
          { field = "len"; min = 1; max = W.Max_mmap; detail = "munmap length out of range" };
        W.Vwrap { base = "gva"; len = "len"; detail = "range wraps" };
      ];
    build =
      (fun ~vfd -> function
        | [ W.I gva; W.I len ] -> Rmunmap { vfd; gva; len } | _ -> assert false);
    parts =
      (function
      | Rmunmap { vfd; gva; len } -> (vfd, [ W.I gva; W.I len ]) | _ -> assert false);
  }

let poll_spec : request W.spec =
  {
    W.op = 9;
    name = "poll";
    takes_vfd = true;
    batchable = true;
    fields =
      [
        fflag "want_in" 16;
        fflag "want_out" 20;
        { W.fname = "timeout"; off = 24; kind = W.Timeout { reject = "poll timeout" } };
      ];
    vchecks = [ vfd_ok; W.Vtimeout { field = "timeout"; detail = "non-finite" } ];
    build =
      (fun ~vfd -> function
        | [ W.B want_in; W.B want_out; W.F timeout_us ] ->
            Rpoll { vfd; want_in; want_out; timeout_us }
        | _ -> assert false);
    parts =
      (function
      | Rpoll { vfd; want_in; want_out; timeout_us } ->
          (vfd, [ W.B want_in; W.B want_out; W.F timeout_us ])
      | _ -> assert false);
  }

let fasync_spec : request W.spec =
  {
    W.op = 10;
    name = "fasync";
    takes_vfd = true;
    batchable = true;
    fields = [ fflag "on" 16 ];
    vchecks = [ vfd_ok ];
    build = (fun ~vfd -> function [ W.B on ] -> Rfasync { vfd; on } | _ -> assert false);
    parts = (function Rfasync { vfd; on } -> (vfd, [ W.B on ]) | _ -> assert false);
  }

let noop_spec : request W.spec =
  {
    W.op = 11;
    name = "noop";
    takes_vfd = false;
    batchable = true;
    fields = [];
    vchecks = [];
    build = (fun ~vfd:_ _ -> Rnoop);
    parts = (function Rnoop -> (0, []) | _ -> assert false);
  }

let req_specs =
  [
    open_spec; release_spec; read_spec; write_spec; ioctl_spec; mmap_spec;
    fault_spec; munmap_spec; poll_spec; fasync_spec; noop_spec;
  ]

(* [Rbatch] is the one structural (recursive) form; it has no field
   spec of its own — count @12, then length-prefixed records of
   batchable specs — and is handled by the shims below. *)
let batch_op = 12

let spec_of_req = function
  | Ropen _ -> open_spec
  | Rrelease _ -> release_spec
  | Rread _ -> read_spec
  | Rwrite _ -> write_spec
  | Rioctl _ -> ioctl_spec
  | Rmmap _ -> mmap_spec
  | Rfault _ -> fault_spec
  | Rmunmap _ -> munmap_spec
  | Rpoll _ -> poll_spec
  | Rfasync _ -> fasync_spec
  | Rnoop -> noop_spec
  | Rbatch _ -> invalid_arg "Proto.spec_of_req: batch has no singleton spec"

let find_req_spec op = List.find_opt (fun s -> s.W.op = op) req_specs

let find_batchable tag =
  List.find_opt (fun s -> s.W.batchable && s.W.op = tag) req_specs

(* ---- derived encoding ---- *)

(* Every refusal of the request encoder, made before it writes a byte. *)
let check_request req =
  match req with
  | Rbatch reqs ->
      let n = List.length reqs in
      if n < 1 || n > max_batch_ops then
        invalid_arg "Proto.encode_request: batch size out of range";
      List.iter
        (fun sub ->
          let batchable =
            match sub with Rbatch _ -> false | _ -> (spec_of_req sub).W.batchable
          in
          if not batchable then invalid_arg "Proto.encode_subop: operation not batchable")
        reqs
  | _ -> W.check_fields (spec_of_req req) req

(* One length-prefixed sub-op record: [u32 record len][u32 tag =
   opcode][u32 vfd][op payload].  Returns the offset just past the
   record.  Only the small fixed-size data-path operations are
   batchable ([check_request] has refused the others). *)
let encode_subop b off req =
  let s = spec_of_req req in
  let vfd, _ = s.W.parts req in
  let len = 12 + W.payload_span ~payload_base:16 s in
  if off + len > trace_off then raise Batch_overflow;
  w32 b off len;
  w32 b (off + 4) s.W.op;
  w32 b (off + 8) vfd;
  (* record payload fields sit at their singleton offsets shifted
     onto the record body (singleton payload base 16 -> off + 12) *)
  W.encode_fields s b ~base:(off + 12 - 16) req;
  off + len

let encode_request_into b ~grant_ref ~pid req =
  check_request req;
  Bytes.fill b 0 slot_size '\000';
  w32 b 4 grant_ref;
  w32 b pid_off pid;
  match req with
  | Rbatch reqs ->
      w32 b 0 batch_op;
      w32 b 12 (List.length reqs);
      let off = ref 16 in
      List.iter (fun sub -> off := encode_subop b !off sub) reqs
  | _ ->
      let s = spec_of_req req in
      let vfd, _ = s.W.parts req in
      w32 b 0 s.W.op;
      w32 b 8 vfd;
      W.encode_fields s b ~base:0 req

let encode_request ~grant_ref ~pid req =
  let b = Bytes.create slot_size in
  encode_request_into b ~grant_ref ~pid req;
  b

(* ---- derived decoding ---- *)

let reject label msg =
  W.Coverage.hit ("reject." ^ label);
  raise (Malformed msg)

let decode_subop b off =
  if off + 12 > trace_off then reject "batch.header" "batch record header";
  let len = r32 b off in
  if len < 12 || off + len > trace_off then
    reject "batch.length" "batch record length";
  let tag = r32 b (off + 4) in
  let vfd = r32 b (off + 8) in
  match find_batchable tag with
  | None -> reject "batch.tag" (Printf.sprintf "batch sub-op tag %d" tag)
  | Some s ->
      if len < 12 + W.payload_span ~payload_base:16 s then
        reject "batch.payload" "batch record payload";
      if W.Coverage.enabled () then W.Coverage.hit ("decode.sub." ^ s.W.name);
      (W.decode_fields s b ~base:(off + 12 - 16) ~msg_prefix:"batch " ~vfd, off + len)

let decode_request b =
  let opcode = r32 b 0 in
  let grant_ref = r32 b 4 in
  let vfd = r32 b 8 in
  let pid = r32 b pid_off in
  let req =
    if opcode = batch_op then begin
      let count = r32 b 12 in
      if count < 1 || count > max_batch_ops then reject "batch.count" "batch count";
      W.Coverage.hit "decode.req.batch";
      let rec go off i acc =
        if i = count then List.rev acc
        else
          let sub, off = decode_subop b off in
          go off (i + 1) (sub :: acc)
      in
      Rbatch (go 16 0 [])
    end
    else
      match find_req_spec opcode with
      | None -> reject "opcode" (Printf.sprintf "opcode %d" opcode)
      | Some s ->
          if W.Coverage.enabled () then W.Coverage.hit ("decode.req." ^ s.W.name);
          W.decode_fields s b ~base:0 ~msg_prefix:"" ~vfd
  in
  (req, grant_ref, pid)

(* ---- derived request sanitization (§4, §7.1: the backend does not
   trust the frontend) ----

   A decoded request is only well-formed bytes; nothing guarantees its
   fields are sane.  The sanitizer runs each spec's [vchecks] in
   declaration order after decode and before dispatch, returning
   either a (possibly clamped) request or the field that failed.  Wire
   signedness is settled by the spec table's read policies: [U32]
   fields can never be negative, and a [U63] read drops bit 63, so a
   hostile u64 with bit 62 set surfaces as a negative int and is
   caught by the derived [>= min] range checks, while one with only
   bit 63 set reads as its low 63 bits and is checked as that
   value. *)

let validate_limits ~(limits : W.limits) ((req : request), grant_ref, pid) :
    (request, violation) result =
  if grant_ref < 0 || grant_ref >= limits.W.grant_capacity then begin
    W.Coverage.hit "sanitize.grant_ref";
    Error { field = "grant_ref"; detail = "outside grant table" }
  end
  else if pid < 0 then begin
    W.Coverage.hit "sanitize.pid";
    Error { field = "pid"; detail = "negative" }
  end
  else
    match req with
    | Rbatch reqs ->
        (* every sub-op passes through the same gate as a singleton;
           the first offending sub-op fails the whole batch, named by
           its index *)
        let n = List.length reqs in
        if n < 1 || n > max_batch_ops then begin
          W.Coverage.hit "sanitize.batch.count";
          Error { field = "batch"; detail = "count out of range" }
        end
        else
          let rec go i acc = function
            | [] -> Ok (Rbatch (List.rev acc))
            | sub :: rest -> (
                match sub with
                | Ropen _ | Rmmap _ | Rfault _ | Rmunmap _ | Rbatch _ ->
                    W.Coverage.hit "sanitize.batch.not_batchable";
                    Error
                      {
                        field = Printf.sprintf "batch[%d]" i;
                        detail = "operation not batchable";
                      }
                | _ -> (
                    match W.validate (spec_of_req sub) limits sub with
                    | Ok sub -> go (i + 1) (sub :: acc) rest
                    | Error e ->
                        Error { e with field = Printf.sprintf "batch[%d].%s" i e.field }))
          in
          go 0 [] reqs
    | _ -> W.validate (spec_of_req req) limits req

(* ---- responses ---- *)

let ok_spec : response W.spec =
  {
    W.op = 1;
    name = "ok";
    takes_vfd = false;
    batchable = true;
    fields = [ fu63 "value" 8 ];
    vchecks = [];
    build = (fun ~vfd:_ -> function [ W.I v ] -> Rok v | _ -> assert false);
    parts = (function Rok v -> (0, [ W.I v ]) | _ -> assert false);
  }

let err_spec : response W.spec =
  {
    W.op = 2;
    name = "err";
    takes_vfd = false;
    batchable = true;
    fields = [ { W.fname = "code"; off = 8; kind = W.Int W.U32 } ];
    vchecks = [];
    build = (fun ~vfd:_ -> function [ W.I code ] -> Rerr code | _ -> assert false);
    parts = (function Rerr code -> (0, [ W.I code ]) | _ -> assert false);
  }

let poll_reply_spec : response W.spec =
  {
    W.op = 3;
    name = "poll_reply";
    takes_vfd = false;
    batchable = true;
    fields = [ fflag "pollin" 8; fflag "pollout" 12 ];
    vchecks = [];
    build =
      (fun ~vfd:_ -> function
        | [ W.B pollin; W.B pollout ] -> Rpoll_reply { pollin; pollout }
        | _ -> assert false);
    parts =
      (function
      | Rpoll_reply { pollin; pollout } -> (0, [ W.B pollin; W.B pollout ])
      | _ -> assert false);
  }

let resp_specs = [ ok_spec; err_spec; poll_reply_spec ]
let batch_reply_op = 4

let spec_of_resp = function
  | Rok _ -> ok_spec
  | Rerr _ -> err_spec
  | Rpoll_reply _ -> poll_reply_spec
  | Rbatch_reply _ -> invalid_arg "Proto.spec_of_resp: batch reply has no spec"

let find_resp_spec tag = List.find_opt (fun s -> s.W.op = tag) resp_specs

(* one length-prefixed sub-response record: [u32 len][u32 tag][payload] *)
let encode_subresp b off sub =
  match sub with
  | Rbatch_reply _ -> invalid_arg "Proto.encode_response: nested batch reply"
  | _ ->
      let s = spec_of_resp sub in
      let len = 8 + W.payload_span ~payload_base:8 s in
      if off + len > trace_off then raise Batch_overflow;
      w32 b off len;
      w32 b (off + 4) s.W.op;
      (* payload fields at singleton offsets shifted onto the record
         (singleton payload base 8 -> off + 8), i.e. base = off *)
      W.encode_fields s b ~base:off sub;
      off + len

let encode_response_into b resp =
  Bytes.fill b 0 slot_size '\000';
  match resp with
  | Rbatch_reply subs ->
      let n = List.length subs in
      if n < 1 || n > max_batch_ops then
        invalid_arg "Proto.encode_response: batch size out of range";
      w32 b 0 batch_reply_op;
      w32 b 8 n;
      let off = ref 16 in
      List.iter (fun sub -> off := encode_subresp b !off sub) subs
  | _ ->
      let s = spec_of_resp resp in
      w32 b 0 s.W.op;
      W.encode_fields s b ~base:0 resp

let encode_response resp =
  let b = Bytes.create slot_size in
  encode_response_into b resp;
  b

let decode_subresp b off =
  if off + 8 > trace_off then reject "batch_reply.header" "batch reply header";
  let len = r32 b off in
  if len < 8 || off + len > trace_off then
    reject "batch_reply.length" "batch reply length";
  let tag = r32 b (off + 4) in
  match find_resp_spec tag with
  | None -> reject "batch_reply.tag" (Printf.sprintf "batch reply tag %d" tag)
  | Some s ->
      if len < 8 + W.payload_span ~payload_base:8 s then
        reject "batch_reply.payload" "batch reply payload";
      if W.Coverage.enabled () then W.Coverage.hit ("decode.subresp." ^ s.W.name);
      (W.decode_fields s b ~base:off ~msg_prefix:"" ~vfd:0, off + len)

let decode_response b =
  let tag = r32 b 0 in
  if tag = batch_reply_op then begin
    let count = r32 b 8 in
    if count < 1 || count > max_batch_ops then
      reject "batch_reply.count" "batch reply count";
    W.Coverage.hit "decode.resp.batch_reply";
    let rec go off i acc =
      if i = count then List.rev acc
      else
        let sub, off = decode_subresp b off in
        go off (i + 1) (sub :: acc)
    in
    Rbatch_reply (go 16 0 [])
  end
  else
    match find_resp_spec tag with
    | None -> reject "response_tag" (Printf.sprintf "response tag %d" tag)
    | Some s ->
        if W.Coverage.enabled () then W.Coverage.hit ("decode.resp." ^ s.W.name);
        W.decode_fields s b ~base:0 ~msg_prefix:"" ~vfd:0

(* ---- derived fuzzing: valid skeletons, one field driven hostile ---- *)

module Fuzz = struct
  (* Generation-time limits only shape valid skeletons (field
     magnitudes); they need not match the serving config exactly. *)
  let default_limits =
    {
      W.max_transfer_bytes = 1 lsl 20;
      poll_timeout_cap_us = 1e6;
      grant_capacity = 4096;
    }

  let generate ?(limits = default_limits) rng =
    let n = List.length req_specs in
    let pick = Sim.Rng.int rng (n + 3) in
    if pick < n then W.generate (List.nth req_specs pick) limits rng
    else
      (* multi-op descriptors get extra weight: their record grammar
         (count, per-record length, tag) is where structure-aware
         mutation pays off *)
      let batchables = List.filter (fun s -> s.W.batchable) req_specs in
      let count = 1 + Sim.Rng.int rng max_batch_ops in
      Rbatch
        (List.init count (fun _ ->
             W.generate
               (List.nth batchables (Sim.Rng.int rng (List.length batchables)))
               limits rng))

  (* Walk a batch descriptor's record table, as far as it stays
     well-formed, so mutations can target interior records. *)
  let batch_records b =
    let count = min (r32 b 12) max_batch_ops in
    let rec go off i acc =
      if i >= count || off + 12 > trace_off then List.rev acc
      else
        let len = r32 b off in
        if len < 12 || off + len > trace_off then List.rev acc
        else go (off + len) (i + 1) ((off, r32 b (off + 4)) :: acc)
    in
    go 16 0 []

  let mutate rng b =
    let opcode = r32 b 0 in
    let header_attack () =
      match Sim.Rng.int rng 4 with
      | 0 -> w32 b 0 (Sim.Rng.int rng 40) (* opcode *)
      | 1 -> w32 b 4 (0xffffffff - Sim.Rng.int rng 4096) (* grant_ref *)
      | 2 -> w32 b 8 (max_vfd + 1 + Sim.Rng.int rng 4096) (* vfd *)
      | _ -> w32 b pid_off 0xffffffff (* pid *)
    in
    if Sim.Rng.int rng 4 = 0 then header_attack ()
    else if opcode = batch_op then begin
      match (Sim.Rng.int rng 4, batch_records b) with
      | 0, _ | _, [] ->
          (* batch count attack *)
          w32 b 12
            (match Sim.Rng.int rng 4 with
            | 0 -> 0
            | 1 -> max_batch_ops + 1
            | 2 -> 0xffffffff
            | _ -> Sim.Rng.int rng 256)
      | 1, records ->
          (* record length attack *)
          let off, _ = List.nth records (Sim.Rng.int rng (List.length records)) in
          w32 b off
            (match Sim.Rng.int rng 4 with
            | 0 -> 0
            | 1 -> 7
            | 2 -> trace_off
            | _ -> 13 (* valid header, truncated payload *))
      | 2, records ->
          (* tag attack *)
          let off, _ = List.nth records (Sim.Rng.int rng (List.length records)) in
          w32 b (off + 4)
            (match Sim.Rng.int rng 4 with
            | 0 -> 0
            | 1 -> 1 (* open: un-batchable tag *)
            | 2 -> batch_op (* nesting attempt *)
            | _ -> 99)
      | _, records -> (
          (* drive one record field hostile under its own spec *)
          let off, tag = List.nth records (Sim.Rng.int rng (List.length records)) in
          match find_batchable tag with
          | Some s when s.W.fields <> [] ->
              let f = List.nth s.W.fields (Sim.Rng.int rng (List.length s.W.fields)) in
              W.hostile_field rng b ~base:(off + 12 - 16) f
          | _ -> w32 b (off + 8) (max_vfd + 1) (* record vfd attack *))
    end
    else
      match find_req_spec opcode with
      | Some s when s.W.fields <> [] ->
          let f = List.nth s.W.fields (Sim.Rng.int rng (List.length s.W.fields)) in
          W.hostile_field rng b ~base:0 f
      | _ -> header_attack ()

  let descriptor ?limits rng ~grant_ref ~pid =
    let b = encode_request ~grant_ref ~pid (generate ?limits rng) in
    (* 1-in-8 descriptors stay valid skeletons, so the campaign also
       exercises the accept paths *)
    if Sim.Rng.int rng 8 > 0 then mutate rng b;
    b
end

(* ---- metadata shims ---- *)

let request_name = function
  | Rbatch reqs -> Printf.sprintf "batch(%d)" (List.length reqs)
  | req -> (spec_of_req req).W.name
