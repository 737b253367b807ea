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

let set_seq b seq = w32 b seq_off seq
let get_seq b = r32 b seq_off

(* The operation's trace id (Obs tracing), minted by the frontend and
   stamped next to the sequence number so every stage of the pipeline
   — transport, backend, hypervisor — can attribute its spans to the
   forwarded operation it serves.  0 = untraced. *)
let trace_off = 1004

let set_trace b id = w32 b trace_off id
let get_trace b = r32 b trace_off

exception Malformed = W.Malformed
exception Oversized = W.Oversized
exception Rejected = W.Rejected

type violation = W.violation = { field : string; detail : string }

let max_vfd = W.max_vfd

(* ---- the spec table: one declaration per message form ---- *)

(* Typed getters: projections, shared by the forms that carry the same
   field; each field's layout is still declared once per spec. *)
let req_vfd = function
  | Rrelease { vfd }
  | Rread { vfd; _ }
  | Rwrite { vfd; _ }
  | Rioctl { vfd; _ }
  | Rmmap { vfd; _ }
  | Rfault { vfd; _ }
  | Rmunmap { vfd; _ }
  | Rpoll { vfd; _ }
  | Rfasync { vfd; _ } ->
      vfd
  | Ropen _ | Rnoop | Rbatch _ -> 0

let get_buf = function Rread { buf; _ } | Rwrite { buf; _ } -> buf | _ -> assert false

let get_len = function
  | Rread { len; _ } | Rwrite { len; _ } | Rmmap { len; _ } | Rmunmap { len; _ } -> len
  | _ -> assert false

let get_gva = function
  | Rmmap { gva; _ } | Rfault { gva; _ } | Rmunmap { gva; _ } -> gva
  | _ -> assert false

let fu63 fname off get = { W.fname; off; kind = W.Int W.U63; get }
let fflag fname off get = { W.fname; off; kind = W.Flag; get }
let no_vfd _ = 0

let vfd_ok =
  W.Vrange { field = "vfd"; min = 0; max = W.Max_vfd; detail = "out of range" }

let open_spec : request W.spec =
  {
    W.op = 1;
    name = "open";
    takes_vfd = false;
    batchable = false;
    vfd = req_vfd;
    payload =
      W.P1
        {
          f1 =
            {
              W.fname = "path";
              off = 16;
              kind = W.Str { len_off = 12; max = 256; reject = "path length" };
              get = (function Ropen { path } -> path | _ -> assert false);
            };
          make = (fun ~vfd:_ path -> Ropen { path });
        };
    vchecks =
      [
        W.Vpath { field = "path"; detail = "not a devfs path (or NUL / dot-dot)" };
      ];
  }

let release_spec : request W.spec =
  {
    W.op = 2;
    name = "release";
    takes_vfd = true;
    batchable = true;
    vfd = req_vfd;
    payload = W.P0 { make = (fun ~vfd -> Rrelease { vfd }) };
    vchecks = [ vfd_ok ];
  }

let transfer_spec op name make : request W.spec =
  {
    W.op;
    name;
    takes_vfd = true;
    batchable = true;
    vfd = req_vfd;
    payload = W.P2 { f1 = fu63 "buf" 16 get_buf; f2 = fu63 "len" 24 get_len; make };
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
  }

let read_spec = transfer_spec 3 "read" (fun ~vfd buf len -> Rread { vfd; buf; len })
let write_spec = transfer_spec 4 "write" (fun ~vfd buf len -> Rwrite { vfd; buf; len })

let ioctl_spec : request W.spec =
  {
    W.op = 5;
    name = "ioctl";
    takes_vfd = true;
    batchable = true;
    vfd = req_vfd;
    payload =
      W.P2
        {
          f1 = fu63 "cmd" 16 (function Rioctl { cmd; _ } -> cmd | _ -> assert false);
          f2 =
            {
              W.fname = "arg";
              off = 24;
              kind = W.Raw64;
              get = (function Rioctl { arg; _ } -> arg | _ -> assert false);
            };
          make = (fun ~vfd cmd arg -> Rioctl { vfd; cmd; arg });
        };
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
  }

let mmap_spec : request W.spec =
  {
    W.op = 6;
    name = "mmap";
    takes_vfd = true;
    batchable = false;
    vfd = req_vfd;
    payload =
      W.P3
        {
          f1 = fu63 "gva" 16 get_gva;
          f2 = fu63 "len" 24 get_len;
          f3 = fu63 "pgoff" 32 (function Rmmap { pgoff; _ } -> pgoff | _ -> assert false);
          make = (fun ~vfd gva len pgoff -> Rmmap { vfd; gva; len; pgoff });
        };
    vchecks =
      [
        vfd_ok;
        W.Vrange
          { field = "len"; min = 1; max = W.Max_mmap; detail = "mmap length out of range" };
        W.Vwrap { base = "gva"; len = "len"; detail = "range wraps" };
        W.Vrange { field = "pgoff"; min = 0; max = W.No_bound; detail = "negative" };
      ];
  }

let fault_spec : request W.spec =
  {
    W.op = 7;
    name = "fault";
    takes_vfd = true;
    batchable = false;
    vfd = req_vfd;
    payload =
      W.P1 { f1 = fu63 "gva" 16 get_gva; make = (fun ~vfd gva -> Rfault { vfd; gva }) };
    vchecks =
      [ vfd_ok; W.Vrange { field = "gva"; min = 0; max = W.No_bound; detail = "negative" } ];
  }

let munmap_spec : request W.spec =
  {
    W.op = 8;
    name = "munmap";
    takes_vfd = true;
    batchable = false;
    vfd = req_vfd;
    payload =
      W.P2
        {
          f1 = fu63 "gva" 16 get_gva;
          f2 = fu63 "len" 24 get_len;
          make = (fun ~vfd gva len -> Rmunmap { vfd; gva; len });
        };
    vchecks =
      [
        vfd_ok;
        W.Vrange
          { field = "len"; min = 1; max = W.Max_mmap; detail = "munmap length out of range" };
        W.Vwrap { base = "gva"; len = "len"; detail = "range wraps" };
      ];
  }

let poll_spec : request W.spec =
  {
    W.op = 9;
    name = "poll";
    takes_vfd = true;
    batchable = true;
    vfd = req_vfd;
    payload =
      W.P3
        {
          f1 = fflag "want_in" 16 (function Rpoll { want_in; _ } -> want_in | _ -> assert false);
          f2 =
            fflag "want_out" 20 (function Rpoll { want_out; _ } -> want_out | _ -> assert false);
          f3 =
            {
              W.fname = "timeout";
              off = 24;
              kind = W.Timeout { reject = "poll timeout" };
              get = (function Rpoll { timeout_us; _ } -> timeout_us | _ -> assert false);
            };
          make =
            (fun ~vfd want_in want_out timeout_us ->
              Rpoll { vfd; want_in; want_out; timeout_us });
        };
    vchecks = [ vfd_ok; W.Vtimeout { field = "timeout"; detail = "non-finite" } ];
  }

let fasync_spec : request W.spec =
  {
    W.op = 10;
    name = "fasync";
    takes_vfd = true;
    batchable = true;
    vfd = req_vfd;
    payload =
      W.P1
        {
          f1 = fflag "on" 16 (function Rfasync { on; _ } -> on | _ -> assert false);
          make = (fun ~vfd on -> Rfasync { vfd; on });
        };
    vchecks = [ vfd_ok ];
  }

let noop_spec : request W.spec =
  {
    W.op = 11;
    name = "noop";
    takes_vfd = false;
    batchable = true;
    vfd = req_vfd;
    payload = W.P0 { make = (fun ~vfd:_ -> Rnoop) };
    vchecks = [];
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

let ok_spec : response W.spec =
  {
    W.op = 1;
    name = "ok";
    takes_vfd = false;
    batchable = true;
    vfd = no_vfd;
    payload =
      W.P1
        {
          f1 = fu63 "value" 8 (function Rok v -> v | _ -> assert false);
          make = (fun ~vfd:_ v -> Rok v);
        };
    vchecks = [];
  }

let err_spec : response W.spec =
  {
    W.op = 2;
    name = "err";
    takes_vfd = false;
    batchable = true;
    vfd = no_vfd;
    payload =
      W.P1
        {
          f1 =
            {
              W.fname = "code";
              off = 8;
              kind = W.Int W.U32;
              get = (function Rerr code -> code | _ -> assert false);
            };
          make = (fun ~vfd:_ code -> Rerr code);
        };
    vchecks = [];
  }

let poll_reply_spec : response W.spec =
  {
    W.op = 3;
    name = "poll_reply";
    takes_vfd = false;
    batchable = true;
    vfd = no_vfd;
    payload =
      W.P2
        {
          f1 =
            fflag "pollin" 8 (function Rpoll_reply { pollin; _ } -> pollin | _ -> assert false);
          f2 =
            fflag "pollout" 12 (function
              | Rpoll_reply { pollout; _ } -> pollout
              | _ -> assert false);
          make = (fun ~vfd:_ pollin pollout -> Rpoll_reply { pollin; pollout });
        };
    vchecks = [];
  }

let resp_specs = [ ok_spec; err_spec; poll_reply_spec ]
let batch_reply_op = 4

(* ---- the compiled table ---- *)

(* A spec compiled once, with what its forms cost on the wire and the
   coverage labels its decodes report, built once. *)
type 'm entry = {
  spec : 'm W.spec;
  codec : 'm W.codec;
  record_len : int; (* its length-prefixed batch record, header included *)
  decode_label : string; (* a singleton decode *)
  record_label : string; (* a batch-record decode *)
}

(* A batch record is [header] bytes of [u32 len][u32 tag] (and [u32
   vfd] for a request), then the payload at its singleton offsets
   shifted from the singleton payload [base] onto the record body. *)
let entry ~header ~base ~single ~record spec =
  let codec = W.compile spec in
  {
    spec;
    codec;
    record_len = header + max 0 (codec.W.field_end - base);
    decode_label = single ^ spec.W.name;
    record_label = record ^ spec.W.name;
  }

let req_entry spec = entry ~header:12 ~base:16 ~single:"decode.req." ~record:"decode.sub." spec

let resp_entry spec =
  entry ~header:8 ~base:8 ~single:"decode.resp." ~record:"decode.subresp." spec

let open_e = req_entry open_spec
and release_e = req_entry release_spec
and read_e = req_entry read_spec
and write_e = req_entry write_spec
and ioctl_e = req_entry ioctl_spec
and mmap_e = req_entry mmap_spec
and fault_e = req_entry fault_spec
and munmap_e = req_entry munmap_spec
and poll_e = req_entry poll_spec
and fasync_e = req_entry fasync_spec
and noop_e = req_entry noop_spec

let ok_e = resp_entry ok_spec
and err_e = resp_entry err_spec
and poll_reply_e = resp_entry poll_reply_spec

let entry_of_req = function
  | Ropen _ -> open_e
  | Rrelease _ -> release_e
  | Rread _ -> read_e
  | Rwrite _ -> write_e
  | Rioctl _ -> ioctl_e
  | Rmmap _ -> mmap_e
  | Rfault _ -> fault_e
  | Rmunmap _ -> munmap_e
  | Rpoll _ -> poll_e
  | Rfasync _ -> fasync_e
  | Rnoop -> noop_e
  | Rbatch _ -> invalid_arg "Proto.entry_of_req: batch has no singleton spec"

let entry_of_resp = function
  | Rok _ -> ok_e
  | Rerr _ -> err_e
  | Rpoll_reply _ -> poll_reply_e
  | Rbatch_reply _ -> invalid_arg "Proto.entry_of_resp: batch reply has no spec"

(* Entries by wire opcode / tag. *)
let by_op entries =
  let op e = e.spec.W.op in
  let table = Array.make (1 + List.fold_left (fun m e -> max m (op e)) 0 entries) None in
  List.iter (fun e -> table.(op e) <- Some e) entries;
  table

let req_table =
  by_op
    [
      open_e; release_e; read_e; write_e; ioctl_e; mmap_e; fault_e; munmap_e; poll_e;
      fasync_e; noop_e;
    ]

let resp_table = by_op [ ok_e; err_e; poll_reply_e ]
let find table op = if op < Array.length table then table.(op) else None

(* Batch geometry, checked once here rather than per record: a full
   batch of the largest records must end below the trace word. *)
let () =
  let fits table =
    let longest =
      Array.fold_left
        (fun m -> function
          | Some e when e.spec.W.batchable -> max m e.record_len
          | _ -> m)
        0 table
    in
    16 + (max_batch_ops * longest) <= trace_off
  in
  if not (fits req_table && fits resp_table) then
    invalid_arg "Proto: a full batch would overlap the trace word"

(* ---- encoding ---- *)

(* Every refusal of the request encoder, made before it writes a byte. *)
let check_request req =
  match req with
  | Rbatch reqs ->
      let n = List.length reqs in
      if n < 1 || n > max_batch_ops then
        invalid_arg "Proto.encode_request: batch size out of range";
      if
        List.exists
          (function Rbatch _ -> true | sub -> not (entry_of_req sub).spec.W.batchable)
          reqs
      then invalid_arg "Proto.encode_subop: operation not batchable"
  | _ -> let e = entry_of_req req in
      e.codec.W.refuse req

(* Length-prefixed sub-op records from [off]: [u32 record len][u32 tag
   = opcode][u32 vfd][op payload].  [check_request] has refused every
   record that is not batchable. *)
let rec write_subops b off = function
  | [] -> ()
  | sub :: rest ->
      let e = entry_of_req sub in
      w32 b off e.record_len;
      w32 b (off + 4) e.spec.W.op;
      w32 b (off + 8) (e.spec.W.vfd sub);
      e.codec.W.write b (off + 12 - 16) sub;
      write_subops b (off + e.record_len) rest

let encode_request_into b ~grant_ref ~pid req =
  check_request req;
  Bytes.fill b 0 slot_size '\000';
  w32 b 4 grant_ref;
  w32 b pid_off pid;
  match req with
  | Rbatch reqs ->
      w32 b 0 batch_op;
      w32 b 12 (List.length reqs);
      write_subops b 16 reqs
  | _ ->
      let e = entry_of_req req in
      w32 b 0 e.spec.W.op;
      w32 b 8 (e.spec.W.vfd req);
      e.codec.W.write b 0 req

let encode_request ~grant_ref ~pid req =
  let b = Bytes.create slot_size in
  encode_request_into b ~grant_ref ~pid req;
  b

(* one length-prefixed sub-response record: [u32 len][u32 tag][payload],
   the payload at its singleton offsets (base 8 -> off + 8) *)
let rec write_subresps b off = function
  | [] -> ()
  | Rbatch_reply _ :: _ -> invalid_arg "Proto.encode_response: nested batch reply"
  | sub :: rest ->
      let e = entry_of_resp sub in
      w32 b off e.record_len;
      w32 b (off + 4) e.spec.W.op;
      e.codec.W.write b off sub;
      write_subresps b (off + e.record_len) rest

let encode_response_into b resp =
  Bytes.fill b 0 slot_size '\000';
  match resp with
  | Rbatch_reply subs ->
      let n = List.length subs in
      if n < 1 || n > max_batch_ops then
        invalid_arg "Proto.encode_response: batch size out of range";
      w32 b 0 batch_reply_op;
      w32 b 8 n;
      write_subresps b 16 subs
  | _ ->
      let e = entry_of_resp resp in
      w32 b 0 e.spec.W.op;
      e.codec.W.write b 0 resp

let encode_response resp =
  let b = Bytes.create slot_size in
  encode_response_into b resp;
  b

(* ---- decoding ---- *)

let reject label msg =
  W.Coverage.hit label;
  raise (Malformed msg)

(* [count - i] records from [off], in order. *)
let rec read_subops b off i count =
  if i = count then []
  else begin
    if off + 12 > trace_off then reject "reject.batch.header" "batch record header";
    let len = r32 b off in
    if len < 12 || off + len > trace_off then
      reject "reject.batch.length" "batch record length";
    let tag = r32 b (off + 4) in
    match find req_table tag with
    | Some e when e.spec.W.batchable ->
        if len < e.record_len then reject "reject.batch.payload" "batch record payload";
        W.Coverage.hit e.record_label;
        let sub = e.codec.W.read b (off + 12 - 16) (r32 b (off + 8)) true in
        sub :: read_subops b (off + len) (i + 1) count
    | _ -> reject "reject.batch.tag" ("batch sub-op tag " ^ string_of_int tag)
  end

let read_body b =
  let opcode = r32 b 0 in
  if opcode = batch_op then begin
    let count = r32 b 12 in
    if count < 1 || count > max_batch_ops then reject "reject.batch.count" "batch count";
    W.Coverage.hit "decode.req.batch";
    Rbatch (read_subops b 16 0 count)
  end
  else
    match find req_table opcode with
    | Some e ->
        W.Coverage.hit e.decode_label;
        e.codec.W.read b 0 (r32 b 8) false
    | None -> reject "reject.opcode" ("opcode " ^ string_of_int opcode)

let get_grant_ref b = r32 b 4
let get_pid b = r32 b pid_off
let decode_request b = (read_body b, get_grant_ref b, get_pid b)

let rec read_subresps b off i count =
  if i = count then []
  else begin
    if off + 8 > trace_off then reject "reject.batch_reply.header" "batch reply header";
    let len = r32 b off in
    if len < 8 || off + len > trace_off then
      reject "reject.batch_reply.length" "batch reply length";
    let tag = r32 b (off + 4) in
    match find resp_table tag with
    | Some e ->
        if len < e.record_len then reject "reject.batch_reply.payload" "batch reply payload";
        W.Coverage.hit e.record_label;
        let sub = e.codec.W.read b off 0 false in
        sub :: read_subresps b (off + len) (i + 1) count
    | None -> reject "reject.batch_reply.tag" ("batch reply tag " ^ string_of_int tag)
  end

let decode_response b =
  let tag = r32 b 0 in
  if tag = batch_reply_op then begin
    let count = r32 b 8 in
    if count < 1 || count > max_batch_ops then
      reject "reject.batch_reply.count" "batch reply count";
    W.Coverage.hit "decode.resp.batch_reply";
    Rbatch_reply (read_subresps b 16 0 count)
  end
  else
    match find resp_table tag with
    | Some e ->
        W.Coverage.hit e.decode_label;
        e.codec.W.read b 0 0 false
    | None -> reject "reject.response_tag" ("response tag " ^ string_of_int tag)

(* ---- request sanitization (§4, §7.1: the backend does not trust the
   frontend) ----

   A decoded request is only well-formed bytes; nothing guarantees its
   fields are sane.  Each spec's compiled [vchecks] run in declaration
   order on the typed value, returning it (possibly clamped) or raising
   the field that failed.  Wire signedness is settled by the spec
   table's read policies: [U32] fields can never be negative, and a
   [U63] read drops bit 63, so a hostile u64 with bit 62 set surfaces
   as a negative int and is caught by the derived [>= min] range
   checks, while one with only bit 63 set reads as its low 63 bits and
   is checked as that value. *)

let rejected label v =
  W.Coverage.hit label;
  raise (Rejected v)

let bad_grant_ref = { field = "grant_ref"; detail = "outside grant table" }
let bad_pid = { field = "pid"; detail = "negative" }
let bad_count = { field = "batch"; detail = "count out of range" }

let check_header ~(limits : W.limits) ~grant_ref ~pid =
  if grant_ref < 0 || grant_ref >= limits.W.grant_capacity then
    rejected "sanitize.grant_ref" bad_grant_ref
  else if pid < 0 then rejected "sanitize.pid" bad_pid

let batch_field i = "batch[" ^ string_of_int i ^ "]"

let not_batchable i =
  rejected "sanitize.batch.not_batchable"
    { field = batch_field i; detail = "operation not batchable" }

(* Every sub-op passes through the same gate as a singleton; the first
   offending sub-op fails the whole batch, named by its index.  The
   list comes back physically unchanged unless a clamp rebuilt a
   sub-op. *)
let rec check_subops limits i = function
  | [] -> []
  | sub :: rest as subs ->
      let sub' =
        match sub with
        | Rbatch _ -> not_batchable i
        | _ -> (
            let e = entry_of_req sub in
            if not e.spec.W.batchable then not_batchable i
            else
              try e.codec.W.check limits sub
              with Rejected v ->
                raise (Rejected { v with field = batch_field i ^ "." ^ v.field }))
      in
      let rest' = check_subops limits (i + 1) rest in
      if sub' == sub && rest' == rest then subs else sub' :: rest'

let check_body limits req =
  match req with
  | Rbatch reqs ->
      let n = List.length reqs in
      if n < 1 || n > max_batch_ops then rejected "sanitize.batch.count" bad_count;
      let reqs' = check_subops limits 0 reqs in
      if reqs' == reqs then req else Rbatch reqs'
  | _ -> (entry_of_req req).codec.W.check limits req

let validate_limits ~(limits : W.limits) ((req : request), grant_ref, pid) :
    (request, violation) result =
  match
    check_header ~limits ~grant_ref ~pid;
    check_body limits req
  with
  | req -> Ok req
  | exception Rejected v -> Error v

(* One pass over the descriptor: every word is read once, into the
   typed value the checks then run on, so the value checked is the
   value dispatched.  A batch's checks run after its last record has
   decoded, because a malformed record anywhere fails the descriptor as
   malformed, ahead of any field violation. *)
let read_request ~limits ~sanitize b =
  let req = read_body b in
  if sanitize then begin
    check_header ~limits ~grant_ref:(get_grant_ref b) ~pid:(get_pid b);
    check_body limits req
  end
  else req

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

  (* the declared fields of the form [op] names (of a batchable one
     inside a batch record) *)
  let fields_of ~in_batch op =
    match find req_table op with
    | Some e when e.spec.W.batchable || not in_batch -> W.fields e.spec
    | _ -> []

  let pick_field rng fields = List.nth fields (Sim.Rng.int rng (List.length fields))

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
          match fields_of ~in_batch:true tag with
          | [] -> w32 b (off + 8) (max_vfd + 1) (* record vfd attack *)
          | fields -> W.hostile_field rng b ~base:(off + 12 - 16) (pick_field rng fields))
    end
    else
      match fields_of ~in_batch:false opcode with
      | [] -> header_attack ()
      | fields -> W.hostile_field rng b ~base:0 (pick_field rng fields)

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
  | req -> (entry_of_req req).spec.W.name
