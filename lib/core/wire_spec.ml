(* Declarative wire-format specs: one declaration per message, four
   derived artifacts (encoder / decoder / sanitizer / fuzzer).  See the
   interface for the design rationale. *)

exception Malformed of string
exception Oversized of { field : string; length : int; limit : int }

type limits = {
  max_transfer_bytes : int;
  poll_timeout_cap_us : float;
  grant_capacity : int;
}

type fval = I of int | I64 of int64 | F of float | S of string | B of bool
type width = U32 | U63
type bound = Lit of int | Max_transfer | Max_mmap | Max_vfd | No_bound

type kind =
  | Int of width
  | Raw64
  | Flag
  | Timeout of { reject : string }
  | Str of { len_off : int; max : int; reject : string }

type field = { fname : string; off : int; kind : kind }

type vcheck =
  | Vrange of { field : string; min : int; max : bound; detail : string }
  | Vwrap of { base : string; len : string; detail : string }
  | Vtimeout of { field : string; detail : string }
  | Vpath of { field : string; detail : string }

type violation = { field : string; detail : string }

type 'm spec = {
  op : int;
  name : string;
  takes_vfd : bool;
  batchable : bool;
  fields : field list;
  vchecks : vcheck list;
  build : vfd:int -> fval list -> 'm;
  parts : 'm -> int * fval list;
}

(* Device mmaps legitimately exceed the copy-transfer cap (a GPU BO or
   a netmap ring can be tens of MiB), but must still be bounded. *)
let max_mmap_bytes = 1 lsl 30
let max_vfd = 1 lsl 20

let eval_bound limits = function
  | Lit n -> n
  | Max_transfer -> limits.max_transfer_bytes
  | Max_mmap -> max_mmap_bytes
  | Max_vfd -> max_vfd
  | No_bound -> max_int

(* The devfs-path predicate shared by live sanitization and checkpoint
   restore. *)
let valid_path path =
  let n = String.length path in
  let has_dotdot = ref false in
  for i = 0 to n - 2 do
    if path.[i] = '.' && path.[i + 1] = '.' then has_dotdot := true
  done;
  n > 5 && n <= 256
  && String.sub path 0 5 = "/dev/"
  && (not (String.contains path '\000'))
  && not !has_dotdot

(* ---- coverage registry ---- *)

module Coverage = struct
  let on = ref false
  let table : (string, int ref) Hashtbl.t = Hashtbl.create 64
  let enable () = on := true
  let disable () = on := false
  let enabled () = !on
  let reset () = Hashtbl.reset table

  let hit label =
    if !on then
      match Hashtbl.find_opt table label with
      | Some r -> incr r
      | None -> Hashtbl.add table label (ref 1)

  let snapshot () =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

(* ---- slot primitives (little-endian, fixed offsets) ---- *)

let w32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let w64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let r32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let r64 b off = Int64.to_int (Bytes.get_int64_le b off)

let reject label msg =
  Coverage.hit ("reject." ^ label);
  raise (Malformed msg)

(* The slot offset just past [f]'s payload bytes. *)
let field_end f =
  match f.kind with
  | Int U32 | Flag -> f.off + 4
  | Int U63 | Raw64 | Timeout _ -> f.off + 8
  | Str { max; _ } -> f.off + max

let payload_span ~payload_base spec =
  List.fold_left (fun acc f -> max acc (field_end f - payload_base)) 0 spec.fields

(* ---- derived encoder ---- *)

(* The refusal a value can meet before anything is written: a string
   past its field's cap. *)
let check_field f v =
  match (f.kind, v) with
  | Str { max; _ }, S s when String.length s > max ->
      raise (Oversized { field = f.fname; length = String.length s; limit = max })
  | _ -> ()

let check_fields spec m =
  if List.exists (fun f -> match f.kind with Str _ -> true | _ -> false) spec.fields
  then List.iter2 check_field spec.fields (snd (spec.parts m))

let encode_field b ~base f v =
  check_field f v;
  match (f.kind, v) with
  | Int U32, I v -> w32 b (f.off + base) v
  | Int U63, I v -> w64 b (f.off + base) v
  | Raw64, I64 v -> Bytes.set_int64_le b (f.off + base) v
  | Flag, B v -> w32 b (f.off + base) (if v then 1 else 0)
  | Timeout _, F v ->
      Bytes.set_int64_le b (f.off + base) (Int64.bits_of_float v)
  | Str { len_off; _ }, S s ->
      let n = String.length s in
      if f.off + base + n > Bytes.length b then
        raise
          (Oversized
             { field = f.fname; length = n; limit = Bytes.length b - f.off - base });
      w32 b (len_off + base) n;
      Bytes.blit_string s 0 b (f.off + base) n
  | _ -> invalid_arg ("Wire_spec.encode_field: value shape mismatch on " ^ f.fname)

let encode_fields spec b ~base m =
  let _, vals = spec.parts m in
  try List.iter2 (fun f v -> encode_field b ~base f v) spec.fields vals
  with Invalid_argument _ when List.length vals <> List.length spec.fields ->
    invalid_arg ("Wire_spec.encode_fields: arity mismatch on " ^ spec.name)

(* ---- derived decoder ---- *)

let decode_field b ~base ~msg_prefix f =
  match f.kind with
  | Int U32 -> I (r32 b (f.off + base))
  | Int U63 -> I (r64 b (f.off + base))
  | Raw64 -> I64 (Bytes.get_int64_le b (f.off + base))
  | Flag -> B (r32 b (f.off + base) <> 0)
  | Timeout { reject = msg } ->
      let v = Int64.float_of_bits (Bytes.get_int64_le b (f.off + base)) in
      (* The timeout travels as raw float bits, so a hostile guest can
         encode NaN, negatives or infinities — any of which would
         corrupt the backend's deadline arithmetic (NaN poisons every
         comparison).  Reject them at decode. *)
      if Float.is_nan v || v < 0. || v = infinity then
        reject ("timeout." ^ f.fname) (msg_prefix ^ msg);
      F v
  | Str { len_off; max; reject = msg } ->
      let n = r32 b (len_off + base) in
      if n > max then reject ("str." ^ f.fname) (msg_prefix ^ msg);
      S (Bytes.sub_string b (f.off + base) n)

let decode_fields spec b ~base ~msg_prefix ~vfd =
  spec.build ~vfd
    (List.map (fun f -> decode_field b ~base ~msg_prefix f) spec.fields)

(* ---- derived sanitizer ---- *)

let int_of_fval name = function
  | I v -> v
  | _ -> invalid_arg ("Wire_spec.validate: non-integer field " ^ name)

let validate spec limits m =
  let vfd, vals = spec.parts m in
  let names = List.map (fun f -> f.fname) spec.fields in
  let get field =
    if field = "vfd" then I vfd
    else
      match List.assoc_opt field (List.combine names vals) with
      | Some v -> v
      | None -> invalid_arg ("Wire_spec.validate: unknown field " ^ field)
  in
  let clamped = ref [] in
  let fail field detail =
    Coverage.hit (Printf.sprintf "sanitize.%s.%s" spec.name field);
    Error { field; detail }
  in
  let rec run = function
    | [] ->
        if !clamped = [] then Ok m
        else
          let vals' =
            List.map2
              (fun name v ->
                match List.assoc_opt name !clamped with
                | Some v' -> v'
                | None -> v)
              names vals
          in
          Ok (spec.build ~vfd vals')
    | Vrange { field; min; max; detail } :: rest ->
        let v = int_of_fval field (get field) in
        if v < min || v > eval_bound limits max then fail field detail
        else run rest
    | Vwrap { base; len; detail } :: rest ->
        let bv = int_of_fval base (get base) in
        let lv = int_of_fval len (get len) in
        if bv < 0 || bv > max_int - lv then fail base detail else run rest
    | Vtimeout { field; detail } :: rest ->
        let v = match get field with F v -> v | _ -> nan in
        if Float.is_nan v || v < 0. then fail field detail
        else begin
          if v > limits.poll_timeout_cap_us then begin
            Coverage.hit (Printf.sprintf "sanitize.clamp.%s.%s" spec.name field);
            clamped := (field, F limits.poll_timeout_cap_us) :: !clamped
          end;
          run rest
        end
    | Vpath { field; detail } :: rest ->
        let p = match get field with S p -> p | _ -> "" in
        if valid_path p then run rest else fail field detail
  in
  run spec.vchecks

(* ---- derived generator: valid skeletons ---- *)

let range_of_field spec fname =
  List.find_map
    (function
      | Vrange { field; min; max; _ } when field = fname -> Some (min, max)
      | _ -> None)
    spec.vchecks

let path_chars = "abcdefghijklmnopqrstuvwxyz0123456789"

let gen_path rng =
  let n = 1 + Sim.Rng.int rng 12 in
  "/dev/"
  ^ String.init n (fun _ ->
        path_chars.[Sim.Rng.int rng (String.length path_chars)])

(* Bound generated magnitudes: valid skeletons should look like live
   traffic (small vfds, modest lengths), not like boundary probes —
   the mutator drives fields hostile afterwards. *)
let gen_cap = 1 lsl 16

let gen_field spec limits rng f =
  match f.kind with
  | Flag -> B (Sim.Rng.bool rng)
  | Raw64 -> I64 (Sim.Rng.next_int64 rng)
  | Timeout _ -> F (Sim.Rng.float rng (Float.min limits.poll_timeout_cap_us 1e6))
  | Str _ -> S (gen_path rng)
  | Int _ ->
      let lo, hi =
        match range_of_field spec f.fname with
        | Some (min_, max_) ->
            (max 0 min_, min (eval_bound limits max_) gen_cap)
        | None -> (0, gen_cap)
      in
      I (lo + Sim.Rng.int rng (hi - lo + 1))

let generate spec limits rng =
  let vfd = if spec.takes_vfd then Sim.Rng.int rng 8 else 0 in
  spec.build ~vfd (List.map (gen_field spec limits rng) spec.fields)

(* ---- grammar-aware hostile mutation ---- *)

let hostile_field rng b ~base f =
  let off = f.off + base in
  match f.kind with
  | Int U32 | Flag ->
      w32 b off
        (match Sim.Rng.int rng 3 with
        | 0 -> 0xffffffff
        | 1 -> max_vfd + 1 + Sim.Rng.int rng 1024
        | _ -> 0x7fffffff)
  | Int U63 | Raw64 ->
      Bytes.set_int64_le b off
        (match Sim.Rng.int rng 3 with
        | 0 -> 0xFFFF_FFFF_FFFF_FFFFL
        | 1 -> Int64.min_int
        | _ -> Int64.logor 0x8000_0000_0000_0000L (Sim.Rng.next_int64 rng))
  | Timeout _ ->
      Bytes.set_int64_le b off
        (Int64.bits_of_float
           (match Sim.Rng.int rng 4 with
           | 0 -> Float.nan
           | 1 -> -1.0
           | 2 -> Float.infinity
           | _ -> Float.neg_infinity))
  | Str { len_off; _ } ->
      w32 b (len_off + base)
        (match Sim.Rng.int rng 3 with
        | 0 -> 257
        | 1 -> 2000
        | _ -> 0xffffffff)
