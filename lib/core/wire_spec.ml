(* Declarative wire-format specs: one declaration per message, compiled
   once into a direct writer, reader and sanitizer; the same table
   drives the fuzzer.  See the interface for the design rationale. *)

exception Malformed of string
exception Oversized of { field : string; length : int; limit : int }

type limits = {
  max_transfer_bytes : int;
  poll_timeout_cap_us : float;
  grant_capacity : int;
}

type width = U32 | U63
type bound = Lit of int | Max_transfer | Max_mmap | Max_vfd | No_bound

type _ kind =
  | Int : width -> int kind
  | Raw64 : int64 kind
  | Flag : bool kind
  | Timeout : { reject : string } -> float kind
  | Str : { len_off : int; max : int; reject : string } -> string kind

type ('m, 'a) field = { fname : string; off : int; kind : 'a kind; get : 'm -> 'a }
type 'm any_field = Field : ('m, 'a) field -> 'm any_field

type 'm payload =
  | P0 : { make : vfd:int -> 'm } -> 'm payload
  | P1 : { f1 : ('m, 'a) field; make : vfd:int -> 'a -> 'm } -> 'm payload
  | P2 : {
      f1 : ('m, 'a) field;
      f2 : ('m, 'b) field;
      make : vfd:int -> 'a -> 'b -> 'm;
    }
      -> 'm payload
  | P3 : {
      f1 : ('m, 'a) field;
      f2 : ('m, 'b) field;
      f3 : ('m, 'c) field;
      make : vfd:int -> 'a -> 'b -> 'c -> 'm;
    }
      -> 'm payload

type vcheck =
  | Vrange of { field : string; min : int; max : bound; detail : string }
  | Vwrap of { base : string; len : string; detail : string }
  | Vtimeout of { field : string; detail : string }
  | Vpath of { field : string; detail : string }

type violation = { field : string; detail : string }

exception Rejected of violation

type 'm spec = {
  op : int;
  name : string;
  takes_vfd : bool;
  batchable : bool;
  vfd : 'm -> int;
  payload : 'm payload;
  vchecks : vcheck list;
}

let fields spec =
  match spec.payload with
  | P0 _ -> []
  | P1 { f1; _ } -> [ Field f1 ]
  | P2 { f1; f2; _ } -> [ Field f1; Field f2 ]
  | P3 { f1; f2; f3; _ } -> [ Field f1; Field f2; Field f3 ]

(* Device mmaps legitimately exceed the copy-transfer cap (a GPU BO or
   a netmap ring can be tens of MiB), but must still be bounded. *)
let max_mmap_bytes = 1 lsl 30
let max_vfd = 1 lsl 20

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
  Coverage.hit label;
  raise (Malformed msg)

(* The slot offset just past [f]'s payload bytes. *)
let field_end (Field f) =
  match f.kind with
  | Int U32 | Flag -> f.off + 4
  | Int U63 | Raw64 | Timeout _ -> f.off + 8
  | Str { max; _ } -> f.off + max

(* ---- compiled writers ---- *)

let oversized f length limit = Oversized { field = f.fname; length; limit }

let writer (type m a) (f : (m, a) field) : bytes -> int -> m -> unit =
  let off = f.off and get = f.get in
  match f.kind with
  | Int U32 -> fun b base m -> w32 b (base + off) (get m)
  | Int U63 -> fun b base m -> w64 b (base + off) (get m)
  | Raw64 -> fun b base m -> Bytes.set_int64_le b (base + off) (get m)
  | Flag -> fun b base m -> w32 b (base + off) (if get m then 1 else 0)
  | Timeout _ ->
      fun b base m -> Bytes.set_int64_le b (base + off) (Int64.bits_of_float (get m))
  | Str { len_off; max; _ } ->
      fun b base m ->
        let s = get m in
        let n = String.length s in
        if n > max then raise (oversized f n max);
        if base + off + n > Bytes.length b then
          raise (oversized f n (Bytes.length b - off - base));
        w32 b (base + len_off) n;
        Bytes.blit_string s 0 b (base + off) n

(* The refusal a value can meet before anything is written: a string
   past its field's cap. *)
let refuser (type m a) (f : (m, a) field) : (m -> unit) option =
  match f.kind with
  | Str { max; _ } ->
      Some
        (fun m ->
          let n = String.length (f.get m) in
          if n > max then raise (oversized f n max))
  | Int _ | Raw64 | Flag | Timeout _ -> None

(* ---- compiled readers ---- *)

let reader (type m a) (f : (m, a) field) : bytes -> int -> bool -> a =
  let off = f.off in
  match f.kind with
  | Int U32 -> fun b base _ -> r32 b (base + off)
  | Int U63 -> fun b base _ -> r64 b (base + off)
  | Raw64 -> fun b base _ -> Bytes.get_int64_le b (base + off)
  | Flag -> fun b base _ -> r32 b (base + off) <> 0
  | Timeout { reject = msg } ->
      let label = "reject.timeout." ^ f.fname and batch_msg = "batch " ^ msg in
      fun b base in_batch ->
        let v = Int64.float_of_bits (Bytes.get_int64_le b (base + off)) in
        (* The timeout travels as raw float bits, so a hostile guest can
           encode NaN, negatives or infinities — any of which would
           corrupt the backend's deadline arithmetic (NaN poisons every
           comparison).  Reject them at decode. *)
        if Float.is_nan v || v < 0. || v = infinity then
          reject label (if in_batch then batch_msg else msg);
        v
  | Str { len_off; max; reject = msg } ->
      let label = "reject.str." ^ f.fname and batch_msg = "batch " ^ msg in
      fun b base in_batch ->
        let n = r32 b (base + len_off) in
        if n > max then reject label (if in_batch then batch_msg else msg);
        Bytes.sub_string b (base + off) n

(* ---- compiled sanitizer rules ---- *)

let bad_rule spec name why =
  invalid_arg (Printf.sprintf "Wire_spec.compile: %s.%s %s" spec.name name why)

let find_field spec name =
  match List.find_opt (fun (Field f) -> f.fname = name) (fields spec) with
  | Some f -> f
  | None -> bad_rule spec name "is not a field"

let int_getter (type m) (spec : m spec) name : m -> int =
  if name = "vfd" then spec.vfd
  else
    match find_field spec name with
    | Field ({ kind = Int _; _ } as f) -> f.get
    | Field _ -> bad_rule spec name "is not an integer field"

let string_getter (type m) (spec : m spec) name : m -> string =
  match find_field spec name with
  | Field ({ kind = Str _; _ } as f) -> f.get
  | Field _ -> bad_rule spec name "is not a string field"

(* A float field's getter, and the rebuild of a message with that field
   replaced: what a clamp returns. *)
let float_field (type m) (spec : m spec) name : (m -> float) * (m -> float -> m) =
  let vfd = spec.vfd in
  match spec.payload with
  | P1 ({ f1 = { kind = Timeout _; _ }; _ } as p) when p.f1.fname = name ->
      (p.f1.get, fun m v -> p.make ~vfd:(vfd m) v)
  | P2 ({ f1 = { kind = Timeout _; _ }; _ } as p) when p.f1.fname = name ->
      (p.f1.get, fun m v -> p.make ~vfd:(vfd m) v (p.f2.get m))
  | P2 ({ f2 = { kind = Timeout _; _ }; _ } as p) when p.f2.fname = name ->
      (p.f2.get, fun m v -> p.make ~vfd:(vfd m) (p.f1.get m) v)
  | P3 ({ f1 = { kind = Timeout _; _ }; _ } as p) when p.f1.fname = name ->
      (p.f1.get, fun m v -> p.make ~vfd:(vfd m) v (p.f2.get m) (p.f3.get m))
  | P3 ({ f2 = { kind = Timeout _; _ }; _ } as p) when p.f2.fname = name ->
      (p.f2.get, fun m v -> p.make ~vfd:(vfd m) (p.f1.get m) v (p.f3.get m))
  | P3 ({ f3 = { kind = Timeout _; _ }; _ } as p) when p.f3.fname = name ->
      (p.f3.get, fun m v -> p.make ~vfd:(vfd m) (p.f1.get m) (p.f2.get m) v)
  | _ -> bad_rule spec name "is not a timeout field"

let static_bound = function
  | Lit n -> n
  | Max_mmap -> max_mmap_bytes
  | Max_vfd -> max_vfd
  | No_bound -> max_int
  | Max_transfer -> invalid_arg "Wire_spec.static_bound: limit-dependent"

(* [rule] compiled in front of the rest of the chain, [k]: on success it
   passes the (possibly clamped) message on. *)
let compile_rule (type m) (spec : m spec) rule (k : limits -> m -> m) : limits -> m -> m =
  let fail field detail =
    let label = "sanitize." ^ spec.name ^ "." ^ field and v = { field; detail } in
    fun () ->
      Coverage.hit label;
      raise (Rejected v)
  in
  match rule with
  | Vrange { field; min; max = Max_transfer; detail } ->
      let get = int_getter spec field and fail = fail field detail in
      fun lim m ->
        let v = get m in
        if v < min || v > lim.max_transfer_bytes then fail () else k lim m
  | Vrange { field; min; max; detail } ->
      let get = int_getter spec field and hi = static_bound max
      and fail = fail field detail in
      fun lim m ->
        let v = get m in
        if v < min || v > hi then fail () else k lim m
  | Vwrap { base; len; detail } ->
      let get_base = int_getter spec base and get_len = int_getter spec len
      and fail = fail base detail in
      fun lim m ->
        let b = get_base m and l = get_len m in
        if b < 0 || b > max_int - l then fail () else k lim m
  | Vtimeout { field; detail } ->
      let get, clamp = float_field spec field and fail = fail field detail
      and clamp_label = "sanitize.clamp." ^ spec.name ^ "." ^ field in
      fun lim m ->
        let v = get m in
        if Float.is_nan v || v < 0. then fail ()
        else if v > lim.poll_timeout_cap_us then begin
          Coverage.hit clamp_label;
          k lim (clamp m lim.poll_timeout_cap_us)
        end
        else k lim m
  | Vpath { field; detail } ->
      let get = string_getter spec field and fail = fail field detail in
      fun lim m -> if valid_path (get m) then k lim m else fail ()

(* ---- the compiled codec ---- *)

type 'm codec = {
  field_end : int;
  write : bytes -> int -> 'm -> unit;
  read : bytes -> int -> int -> bool -> 'm;
  refuse : 'm -> unit;
  check : limits -> 'm -> 'm;
}

let compile (type m) (spec : m spec) : m codec =
  let write : bytes -> int -> m -> unit =
    match spec.payload with
    | P0 _ -> fun _ _ _ -> ()
    | P1 { f1; _ } -> writer f1
    | P2 { f1; f2; _ } ->
        let w1 = writer f1 and w2 = writer f2 in
        fun b base m ->
          w1 b base m;
          w2 b base m
    | P3 { f1; f2; f3; _ } ->
        let w1 = writer f1 and w2 = writer f2 and w3 = writer f3 in
        fun b base m ->
          w1 b base m;
          w2 b base m;
          w3 b base m
  and read : bytes -> int -> int -> bool -> m =
    (* fields are read in wire order, so the first malformed one is the
       one reported *)
    match spec.payload with
    | P0 { make } -> fun _ _ vfd _ -> make ~vfd
    | P1 { f1; make } ->
        let r1 = reader f1 in
        fun b base vfd in_batch -> make ~vfd (r1 b base in_batch)
    | P2 { f1; f2; make } ->
        let r1 = reader f1 and r2 = reader f2 in
        fun b base vfd in_batch ->
          let v1 = r1 b base in_batch in
          let v2 = r2 b base in_batch in
          make ~vfd v1 v2
    | P3 { f1; f2; f3; make } ->
        let r1 = reader f1 and r2 = reader f2 and r3 = reader f3 in
        fun b base vfd in_batch ->
          let v1 = r1 b base in_batch in
          let v2 = r2 b base in_batch in
          let v3 = r3 b base in_batch in
          make ~vfd v1 v2 v3
  and refuse : m -> unit =
    match List.filter_map (fun (Field f) -> refuser f) (fields spec) with
    | [] -> fun _ -> ()
    | [ r ] -> r
    | rs -> fun m -> List.iter (fun r -> r m) rs
  in
  {
    field_end = List.fold_left (fun acc f -> max acc (field_end f)) 0 (fields spec);
    write;
    read;
    refuse;
    check = List.fold_right (compile_rule spec) spec.vchecks (fun _ m -> m);
  }

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

let gen_field (type m a) (spec : m spec) limits rng (f : (m, a) field) : a =
  match f.kind with
  | Flag -> Sim.Rng.bool rng
  | Raw64 -> Sim.Rng.next_int64 rng
  | Timeout _ -> Sim.Rng.float rng (Float.min limits.poll_timeout_cap_us 1e6)
  | Str _ -> gen_path rng
  | Int _ ->
      let lo, hi =
        match range_of_field spec f.fname with
        | Some (min_, Max_transfer) -> (max 0 min_, min limits.max_transfer_bytes gen_cap)
        | Some (min_, max_) -> (max 0 min_, min (static_bound max_) gen_cap)
        | None -> (0, gen_cap)
      in
      lo + Sim.Rng.int rng (hi - lo + 1)

(* The vfd is drawn first, then the fields in wire order. *)
let generate spec limits rng =
  let vfd = if spec.takes_vfd then Sim.Rng.int rng 8 else 0 in
  match spec.payload with
  | P0 { make } -> make ~vfd
  | P1 { f1; make } -> make ~vfd (gen_field spec limits rng f1)
  | P2 { f1; f2; make } ->
      let v1 = gen_field spec limits rng f1 in
      let v2 = gen_field spec limits rng f2 in
      make ~vfd v1 v2
  | P3 { f1; f2; f3; make } ->
      let v1 = gen_field spec limits rng f1 in
      let v2 = gen_field spec limits rng f2 in
      let v3 = gen_field spec limits rng f3 in
      make ~vfd v1 v2 v3

(* ---- grammar-aware hostile mutation ---- *)

let hostile_field rng b ~base (Field f) =
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
