(* Reference model of the CVD wire codec: the interpreter the compiled
   codec replaced, kept here as the oracle's specification.  It walks
   the spec table on every message, carries field values as a list of
   boxed [fval]s, looks each sanitizer rule's field up by name, and
   builds reject messages and coverage labels per failure.  Slow by
   design and independent of [Wire_spec.compile]: it shares only the
   spec table (offsets, kinds, rules, typed getters and constructors)
   and the coverage registry. *)

module W = Paradice.Wire_spec
module P = Paradice.Proto

type fval = I of int | I64 of int64 | F of float | S of string | B of bool

let to_fval (type a) (k : a W.kind) (v : a) =
  match k with
  | W.Int _ -> I v
  | W.Raw64 -> I64 v
  | W.Flag -> B v
  | W.Timeout _ -> F v
  | W.Str _ -> S v

let of_fval (type a) (k : a W.kind) v : a =
  match (k, v) with
  | W.Int _, I v -> v
  | W.Raw64, I64 v -> v
  | W.Flag, B v -> v
  | W.Timeout _, F v -> v
  | W.Str _, S v -> v
  | _ -> invalid_arg "Wire_model: value shape mismatch"

(* The interpreted design's projection and rebuild, over value lists. *)
let parts spec m =
  (spec.W.vfd m, List.map (fun (W.Field f) -> to_fval f.W.kind (f.W.get m)) (W.fields spec))

let build spec ~vfd vals =
  match (spec.W.payload, vals) with
  | W.P0 p, [] -> p.make ~vfd
  | W.P1 p, [ a ] -> p.make ~vfd (of_fval p.f1.W.kind a)
  | W.P2 p, [ a; b ] -> p.make ~vfd (of_fval p.f1.W.kind a) (of_fval p.f2.W.kind b)
  | W.P3 p, [ a; b; c ] ->
      p.make ~vfd (of_fval p.f1.W.kind a) (of_fval p.f2.W.kind b) (of_fval p.f3.W.kind c)
  | _ -> invalid_arg ("Wire_model.build: arity mismatch on " ^ spec.W.name)

(* ---- slot words ---- *)

let w32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let w64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let r32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let r64 b off = Int64.to_int (Bytes.get_int64_le b off)

let reject label msg =
  W.Coverage.hit ("reject." ^ label);
  raise (W.Malformed msg)

let field_end (W.Field f) =
  match f.W.kind with
  | W.Int W.U32 | W.Flag -> f.W.off + 4
  | W.Int W.U63 | W.Raw64 | W.Timeout _ -> f.W.off + 8
  | W.Str { max; _ } -> f.W.off + max

let payload_span ~payload_base spec =
  List.fold_left (fun acc f -> max acc (field_end f - payload_base)) 0 (W.fields spec)

(* ---- interpreted encoder ---- *)

let check_field (W.Field f) v =
  match (f.W.kind, v) with
  | W.Str { max; _ }, S s when String.length s > max ->
      raise (W.Oversized { field = f.W.fname; length = String.length s; limit = max })
  | _ -> ()

let check_fields spec m =
  if List.exists (fun (W.Field f) -> match f.W.kind with W.Str _ -> true | _ -> false)
       (W.fields spec)
  then List.iter2 check_field (W.fields spec) (snd (parts spec m))

let encode_field b ~base (W.Field f as field) v =
  check_field field v;
  let off = f.W.off + base in
  match (f.W.kind, v) with
  | W.Int W.U32, I v -> w32 b off v
  | W.Int W.U63, I v -> w64 b off v
  | W.Raw64, I64 v -> Bytes.set_int64_le b off v
  | W.Flag, B v -> w32 b off (if v then 1 else 0)
  | W.Timeout _, F v -> Bytes.set_int64_le b off (Int64.bits_of_float v)
  | W.Str { len_off; _ }, S s ->
      let n = String.length s in
      if off + n > Bytes.length b then
        raise
          (W.Oversized { field = f.W.fname; length = n; limit = Bytes.length b - off });
      w32 b (len_off + base) n;
      Bytes.blit_string s 0 b off n
  | _ -> invalid_arg ("Wire_model.encode_field: value shape mismatch on " ^ f.W.fname)

let encode_fields spec b ~base m =
  List.iter2 (fun f v -> encode_field b ~base f v) (W.fields spec) (snd (parts spec m))

(* ---- interpreted decoder ---- *)

let decode_field b ~base ~msg_prefix (W.Field f) =
  let off = f.W.off + base in
  match f.W.kind with
  | W.Int W.U32 -> I (r32 b off)
  | W.Int W.U63 -> I (r64 b off)
  | W.Raw64 -> I64 (Bytes.get_int64_le b off)
  | W.Flag -> B (r32 b off <> 0)
  | W.Timeout { reject = msg } ->
      let v = Int64.float_of_bits (Bytes.get_int64_le b off) in
      if Float.is_nan v || v < 0. || v = infinity then
        reject ("timeout." ^ f.W.fname) (msg_prefix ^ msg);
      F v
  | W.Str { len_off; max; reject = msg } ->
      let n = r32 b (len_off + base) in
      if n > max then reject ("str." ^ f.W.fname) (msg_prefix ^ msg);
      S (Bytes.sub_string b off n)

let decode_fields spec b ~base ~msg_prefix ~vfd =
  build spec ~vfd (List.map (fun f -> decode_field b ~base ~msg_prefix f) (W.fields spec))

(* ---- interpreted sanitizer ---- *)

let eval_bound (limits : W.limits) = function
  | W.Lit n -> n
  | W.Max_transfer -> limits.W.max_transfer_bytes
  | W.Max_mmap -> 1 lsl 30
  | W.Max_vfd -> W.max_vfd
  | W.No_bound -> max_int

let int_of_fval name = function
  | I v -> v
  | _ -> invalid_arg ("Wire_model.validate: non-integer field " ^ name)

let validate spec (limits : W.limits) m : (_, W.violation) result =
  let vfd, vals = parts spec m in
  let names = List.map (fun (W.Field f) -> f.W.fname) (W.fields spec) in
  let get field =
    if field = "vfd" then I vfd
    else
      match List.assoc_opt field (List.combine names vals) with
      | Some v -> v
      | None -> invalid_arg ("Wire_model.validate: unknown field " ^ field)
  in
  let clamped = ref [] in
  let fail field detail =
    W.Coverage.hit (Printf.sprintf "sanitize.%s.%s" spec.W.name field);
    Error { W.field; detail }
  in
  let rec run = function
    | [] ->
        if !clamped = [] then Ok m
        else
          Ok
            (build spec ~vfd
               (List.map2
                  (fun name v ->
                    match List.assoc_opt name !clamped with Some v' -> v' | None -> v)
                  names vals))
    | W.Vrange { field; min; max; detail } :: rest ->
        let v = int_of_fval field (get field) in
        if v < min || v > eval_bound limits max then fail field detail else run rest
    | W.Vwrap { base; len; detail } :: rest ->
        let bv = int_of_fval base (get base) in
        let lv = int_of_fval len (get len) in
        if bv < 0 || bv > max_int - lv then fail base detail else run rest
    | W.Vtimeout { field; detail } :: rest ->
        let v = match get field with F v -> v | _ -> nan in
        if Float.is_nan v || v < 0. then fail field detail
        else begin
          if v > limits.W.poll_timeout_cap_us then begin
            W.Coverage.hit (Printf.sprintf "sanitize.clamp.%s.%s" spec.W.name field);
            clamped := (field, F limits.W.poll_timeout_cap_us) :: !clamped
          end;
          run rest
        end
    | W.Vpath { field; detail } :: rest ->
        let p = match get field with S p -> p | _ -> "" in
        if W.valid_path p then run rest else fail field detail
  in
  run spec.W.vchecks

(* ---- the descriptor grammar: header, batch records, replies ---- *)

let slot_size = P.slot_size
let trace_off = P.trace_off
let pid_off = 1012
let batch_op = 12
let batch_reply_op = 4
let spec_named specs name = List.find (fun s -> s.W.name = name) specs

let spec_of_req = function
  | P.Ropen _ -> spec_named P.req_specs "open"
  | P.Rrelease _ -> spec_named P.req_specs "release"
  | P.Rread _ -> spec_named P.req_specs "read"
  | P.Rwrite _ -> spec_named P.req_specs "write"
  | P.Rioctl _ -> spec_named P.req_specs "ioctl"
  | P.Rmmap _ -> spec_named P.req_specs "mmap"
  | P.Rfault _ -> spec_named P.req_specs "fault"
  | P.Rmunmap _ -> spec_named P.req_specs "munmap"
  | P.Rpoll _ -> spec_named P.req_specs "poll"
  | P.Rfasync _ -> spec_named P.req_specs "fasync"
  | P.Rnoop -> spec_named P.req_specs "noop"
  | P.Rbatch _ -> invalid_arg "Wire_model.spec_of_req: batch"

let spec_of_resp = function
  | P.Rok _ -> spec_named P.resp_specs "ok"
  | P.Rerr _ -> spec_named P.resp_specs "err"
  | P.Rpoll_reply _ -> spec_named P.resp_specs "poll_reply"
  | P.Rbatch_reply _ -> invalid_arg "Wire_model.spec_of_resp: batch reply"

let find_req_spec op = List.find_opt (fun s -> s.W.op = op) P.req_specs
let find_batchable tag = List.find_opt (fun s -> s.W.batchable && s.W.op = tag) P.req_specs
let find_resp_spec tag = List.find_opt (fun s -> s.W.op = tag) P.resp_specs

let check_request req =
  match req with
  | P.Rbatch reqs ->
      let n = List.length reqs in
      if n < 1 || n > P.max_batch_ops then
        invalid_arg "Proto.encode_request: batch size out of range";
      List.iter
        (fun sub ->
          let batchable =
            match sub with P.Rbatch _ -> false | _ -> (spec_of_req sub).W.batchable
          in
          if not batchable then invalid_arg "Proto.encode_subop: operation not batchable")
        reqs
  | _ -> check_fields (spec_of_req req) req

let encode_subop b off req =
  let s = spec_of_req req in
  let vfd, _ = parts s req in
  let len = 12 + payload_span ~payload_base:16 s in
  w32 b off len;
  w32 b (off + 4) s.W.op;
  w32 b (off + 8) vfd;
  encode_fields s b ~base:(off + 12 - 16) req;
  off + len

let encode_request ~grant_ref ~pid req =
  check_request req;
  let b = Bytes.make slot_size '\000' in
  w32 b 4 grant_ref;
  w32 b pid_off pid;
  (match req with
  | P.Rbatch reqs ->
      w32 b 0 batch_op;
      w32 b 12 (List.length reqs);
      let off = ref 16 in
      List.iter (fun sub -> off := encode_subop b !off sub) reqs
  | _ ->
      let s = spec_of_req req in
      let vfd, _ = parts s req in
      w32 b 0 s.W.op;
      w32 b 8 vfd;
      encode_fields s b ~base:0 req);
  b

let decode_subop b off =
  if off + 12 > trace_off then reject "batch.header" "batch record header";
  let len = r32 b off in
  if len < 12 || off + len > trace_off then reject "batch.length" "batch record length";
  let tag = r32 b (off + 4) in
  let vfd = r32 b (off + 8) in
  match find_batchable tag with
  | None -> reject "batch.tag" (Printf.sprintf "batch sub-op tag %d" tag)
  | Some s ->
      if len < 12 + payload_span ~payload_base:16 s then
        reject "batch.payload" "batch record payload";
      W.Coverage.hit ("decode.sub." ^ s.W.name);
      (decode_fields s b ~base:(off + 12 - 16) ~msg_prefix:"batch " ~vfd, off + len)

let decode_request b =
  let opcode = r32 b 0 in
  let grant_ref = r32 b 4 in
  let vfd = r32 b 8 in
  let pid = r32 b pid_off in
  let req =
    if opcode = batch_op then begin
      let count = r32 b 12 in
      if count < 1 || count > P.max_batch_ops then reject "batch.count" "batch count";
      W.Coverage.hit "decode.req.batch";
      let rec go off i acc =
        if i = count then List.rev acc
        else
          let sub, off = decode_subop b off in
          go off (i + 1) (sub :: acc)
      in
      P.Rbatch (go 16 0 [])
    end
    else
      match find_req_spec opcode with
      | None -> reject "opcode" (Printf.sprintf "opcode %d" opcode)
      | Some s ->
          W.Coverage.hit ("decode.req." ^ s.W.name);
          decode_fields s b ~base:0 ~msg_prefix:"" ~vfd
  in
  (req, grant_ref, pid)

let validate_limits ~(limits : W.limits) (req, grant_ref, pid) =
  if grant_ref < 0 || grant_ref >= limits.W.grant_capacity then begin
    W.Coverage.hit "sanitize.grant_ref";
    Error { W.field = "grant_ref"; detail = "outside grant table" }
  end
  else if pid < 0 then begin
    W.Coverage.hit "sanitize.pid";
    Error { W.field = "pid"; detail = "negative" }
  end
  else
    match req with
    | P.Rbatch reqs ->
        let n = List.length reqs in
        if n < 1 || n > P.max_batch_ops then begin
          W.Coverage.hit "sanitize.batch.count";
          Error { W.field = "batch"; detail = "count out of range" }
        end
        else
          let rec go i acc = function
            | [] -> Ok (P.Rbatch (List.rev acc))
            | sub :: rest -> (
                match sub with
                | P.Ropen _ | P.Rmmap _ | P.Rfault _ | P.Rmunmap _ | P.Rbatch _ ->
                    W.Coverage.hit "sanitize.batch.not_batchable";
                    Error
                      { W.field = Printf.sprintf "batch[%d]" i; detail = "operation not batchable" }
                | _ -> (
                    match validate (spec_of_req sub) limits sub with
                    | Ok sub -> go (i + 1) (sub :: acc) rest
                    | Error e ->
                        Error { e with W.field = Printf.sprintf "batch[%d].%s" i e.W.field }))
          in
          go 0 [] reqs
    | _ -> validate (spec_of_req req) limits req

let encode_subresp b off sub =
  match sub with
  | P.Rbatch_reply _ -> invalid_arg "Proto.encode_response: nested batch reply"
  | _ ->
      let s = spec_of_resp sub in
      let len = 8 + payload_span ~payload_base:8 s in
      w32 b off len;
      w32 b (off + 4) s.W.op;
      encode_fields s b ~base:off sub;
      off + len

let encode_response resp =
  let b = Bytes.make slot_size '\000' in
  (match resp with
  | P.Rbatch_reply subs ->
      let n = List.length subs in
      if n < 1 || n > P.max_batch_ops then
        invalid_arg "Proto.encode_response: batch size out of range";
      w32 b 0 batch_reply_op;
      w32 b 8 n;
      let off = ref 16 in
      List.iter (fun sub -> off := encode_subresp b !off sub) subs
  | _ ->
      let s = spec_of_resp resp in
      w32 b 0 s.W.op;
      encode_fields s b ~base:0 resp);
  b

let decode_subresp b off =
  if off + 8 > trace_off then reject "batch_reply.header" "batch reply header";
  let len = r32 b off in
  if len < 8 || off + len > trace_off then reject "batch_reply.length" "batch reply length";
  let tag = r32 b (off + 4) in
  match find_resp_spec tag with
  | None -> reject "batch_reply.tag" (Printf.sprintf "batch reply tag %d" tag)
  | Some s ->
      if len < 8 + payload_span ~payload_base:8 s then
        reject "batch_reply.payload" "batch reply payload";
      W.Coverage.hit ("decode.subresp." ^ s.W.name);
      (decode_fields s b ~base:off ~msg_prefix:"" ~vfd:0, off + len)

let decode_response b =
  let tag = r32 b 0 in
  if tag = batch_reply_op then begin
    let count = r32 b 8 in
    if count < 1 || count > P.max_batch_ops then
      reject "batch_reply.count" "batch reply count";
    W.Coverage.hit "decode.resp.batch_reply";
    let rec go off i acc =
      if i = count then List.rev acc
      else
        let sub, off = decode_subresp b off in
        go off (i + 1) (sub :: acc)
    in
    P.Rbatch_reply (go 16 0 [])
  end
  else
    match find_resp_spec tag with
    | None -> reject "response_tag" (Printf.sprintf "response tag %d" tag)
    | Some s ->
        W.Coverage.hit ("decode.resp." ^ s.W.name);
        decode_fields s b ~base:0 ~msg_prefix:"" ~vfd:0
