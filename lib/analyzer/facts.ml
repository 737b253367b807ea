(** Per-ioctl interface facts (the VIA-style argument-shape summary).

    Slicing ({!Slice}) answers "which memory operations does this
    handler perform"; this module answers the interface question the
    runtime checker needs: which argument {e fields} are pointers (and
    whether they are nested — reached only through data an earlier
    [Copy_from_user] brought in), which are lengths and what buffer
    they bound, which are indices and what table they select into, and
    what value ranges the handler's own conditionals admit.  Each fact
    record compiles down to a list of {!check}s — the generated
    sanitizer installed in front of the backend handler — and seeds
    the grammar-aware hostile generators.

    Conventions the extraction relies on (and the IR mirrors follow):
    - a field is a [Let (v, Field {buf; offset = Const _; _})];
    - [If {cond; then_; else_ = []}] means [cond] holds on the valid
      path (the C original returns -EINVAL otherwise), so [cond]
      contributes a range constraint for the variables it tests;
      symmetrically [If {cond; then_ = []; else_}] contributes the
      negation. *)

open Ir

type role =
  | Scalar  (** plain data: consumed by the device, never an address *)
  | Ptr of { nested : bool }
      (** used as the address of a later copy; [nested] when the field
          itself lives behind a pointer fetched from guest data
          (i.e. its buffer was not copied straight from [Arg]) *)
  | Len of { bounds : string; scale : int }
      (** bounds the size of buffer [bounds]; byte length is
          [value * scale] *)
  | Index of { table : string }  (** selects an entry of [table] *)

type range = { lo : int option; hi : int option }

let no_range = { lo = None; hi = None }
let range_known r = r.lo <> None || r.hi <> None

type field_fact = {
  ff_var : string;  (** the [Let]-bound name in the handler source *)
  ff_offset : int;  (** byte offset (element stride for array loads) *)
  ff_width : int;
  ff_role : role;
  ff_range : range;
  ff_loop : bool;  (** the value counts a [For] loop *)
  ff_direct : bool;
      (** constant offset into a buffer copied straight from [Arg]:
          the sanitizer can re-read it before the handler runs *)
}

type handler_fact = {
  hf_cmd : int;
  hf_name : string;
  hf_arg_len : int;
      (** bytes of the top-level struct copied in from [Arg]
          (0: value argument or write-only ioctl) *)
  hf_fields : field_fact list;
  hf_nested : bool;  (** {!Slice.has_nested_ops} of the slice *)
  hf_lines : int;  (** {!Slice.extracted_lines} of the slice *)
}

type t = {
  fd_driver : string;
  fd_handlers : handler_fact list;
}

(* ---- structural walks over the whole handler body ---- *)

let rec flatten stmts =
  List.concat_map
    (fun s ->
      s
      ::
      (match s with
      | For { body; _ } -> flatten body
      | If { then_; else_; _ } -> flatten then_ @ flatten else_
      | _ -> []))
    stmts

let rec sub_exprs e =
  e
  ::
  (match e with
  | Field { offset; _ } -> sub_exprs offset
  | Add (a, b) | Mul (a, b) -> sub_exprs a @ sub_exprs b
  | Const _ | Arg | Var _ -> [])

let stmt_exprs = function
  | Copy_from_user { src; len; _ } -> [ src; len ]
  | Copy_to_user { dst; len; _ } -> [ dst; len ]
  | Let (_, e) -> [ e ]
  | Store_field { offset; value; _ } -> [ offset; value ]
  | For { count; _ } -> [ count ]
  | If { cond = Eq (a, b) | Lt (a, b) | Ne (a, b); _ } -> [ a; b ]
  | Hw_op _ -> []

let mentions v e = List.mem v (expr_vars e)

(* The argument expression of the ioctl itself. *)
let is_arg = function Arg | Add (Arg, Const _) | Add (Const _, Arg) -> true | _ -> false

(* ---- range constraints from validity conditionals ---- *)

let meet_lo r k = { r with lo = Some (match r.lo with None -> k | Some l -> max l k) }
let meet_hi r k = { r with hi = Some (match r.hi with None -> k | Some h -> min h k) }

let constrain ranges ~negated cond =
  let upd v f =
    let r = match List.assoc_opt v ranges with Some r -> r | None -> no_range in
    (v, f r) :: List.remove_assoc v ranges
  in
  match (cond, negated) with
  (* v < k holds on the valid path *)
  | Lt (Var v, Const k), false -> upd v (fun r -> meet_hi r (k - 1))
  | Lt (Const k, Var v), false -> upd v (fun r -> meet_lo r (k + 1))
  | (Eq (Var v, Const k) | Eq (Const k, Var v)), false ->
      upd v (fun r -> meet_hi (meet_lo r k) k)
  (* not (v < k)  ==>  v >= k *)
  | Lt (Var v, Const k), true -> upd v (fun r -> meet_lo r k)
  | Lt (Const k, Var v), true -> upd v (fun r -> meet_hi r k)
  | (Ne (Var v, Const k) | Ne (Const k, Var v)), true ->
      upd v (fun r -> meet_hi (meet_lo r k) k)
  | _ -> ranges

let rec ranges_of ranges stmts =
  List.fold_left
    (fun ranges s ->
      match s with
      | If { cond; then_; else_ = [] } ->
          ranges_of (constrain ranges ~negated:false cond) then_
      | If { cond; then_ = []; else_ } ->
          ranges_of (constrain ranges ~negated:true cond) else_
      | If { then_; else_; _ } -> ranges_of (ranges_of ranges then_) else_
      | For { body; _ } -> ranges_of ranges body
      | _ -> ranges)
    ranges stmts

(* ---- per-handler extraction ---- *)

let of_handler (h : handler) : handler_fact =
  let flat = flatten h.body in
  let exprs = List.concat_map stmt_exprs flat in
  let subs = List.concat_map sub_exprs exprs in
  (* buffers filled straight from the ioctl argument *)
  let primary =
    List.filter_map
      (function
        | Copy_from_user { dst_buf; src; _ } when is_arg src -> Some dst_buf
        | _ -> None)
      flat
  in
  let arg_len =
    List.fold_left
      (fun acc s ->
        match s with
        | Copy_from_user { src; len = Const n; _ } when is_arg src && acc = 0 -> n
        | _ -> acc)
      0 flat
  in
  let ranges = ranges_of [] h.body in
  (* role classification, by how the handler uses each field value *)
  let used_as_ptr v =
    List.exists
      (function
        | Copy_from_user { src; _ } -> mentions v src
        | Copy_to_user { dst; _ } -> mentions v dst
        | _ -> false)
      flat
  in
  let used_as_index v =
    List.find_map
      (function
        | Field { buf; offset; _ } when mentions v offset -> Some buf
        | _ -> None)
      subs
  in
  let copy_len_use v =
    List.find_map
      (fun s ->
        let probe buf len =
          if not (mentions v len) then None
          else
            match len with
            | Var _ -> Some (buf, 1)
            | Mul (Var _, Const k) | Mul (Const k, Var _) -> Some (buf, k)
            | _ -> Some (buf, 1)
        in
        match s with
        | Copy_from_user { dst_buf; len; _ } -> probe dst_buf len
        | Copy_to_user { src_buf; len; _ } -> probe src_buf len
        | _ -> None)
      flat
  in
  let loop_count_use v =
    List.exists (function For { count; _ } -> mentions v count | _ -> false) flat
  in
  let fields =
    List.filter_map
      (function
        | Let (v, Field { buf; offset; width }) ->
            let off, const_off =
              match offset with
              | Const k -> (k, true)
              | Mul (Var _, Const k) | Mul (Const k, Var _) -> (k, false)
              | _ -> (0, false)
            in
            let role =
              if used_as_ptr v then Ptr { nested = not (List.mem buf primary) }
              else
                match used_as_index v with
                | Some table -> Index { table }
                | None -> (
                    match copy_len_use v with
                    | Some (bounds, scale) -> Len { bounds; scale }
                    | None ->
                        if loop_count_use v then Len { bounds = "loop"; scale = 1 }
                        else Scalar)
            in
            let range =
              match List.assoc_opt v ranges with Some r -> r | None -> no_range
            in
            Some
              {
                ff_var = v;
                ff_offset = off;
                ff_width = width;
                ff_role = role;
                ff_range = range;
                ff_loop = loop_count_use v;
                ff_direct = const_off && List.mem buf primary;
              }
        | _ -> None)
      flat
  in
  let slice = Slice.of_handler h in
  {
    hf_cmd = h.cmd;
    hf_name = h.handler_name;
    hf_arg_len = arg_len;
    hf_fields = fields;
    hf_nested = Slice.has_nested_ops slice;
    hf_lines = Slice.extracted_lines slice;
  }

let of_driver (d : driver) : t =
  {
    fd_driver = d.driver_name;
    fd_handlers = List.map of_handler d.handlers;
  }

let find t cmd = List.find_opt (fun hf -> hf.hf_cmd = cmd) t.fd_handlers

(* ---- generated checks: the sanitizer source compiled from facts ---- *)

type check =
  | Check_range of {
      var : string;
      offset : int;
      width : int;
      lo : int option;
      hi : int option;
    }  (** re-read the field; reject outside [lo, hi] *)
  | Check_len of {
      var : string;
      offset : int;
      width : int;
      scale : int;
      loop : bool;
    }
      (** reject when [value * scale] exceeds the transfer cap, or the
          value exceeds the Jit loop bound when it counts a loop *)

(* Only depth-1 fields can be re-read by a sanitizer sitting in front
   of the handler: nested fields live behind pointers whose targets the
   handler has not copied yet. *)
let checks (hf : handler_fact) : check list =
  List.concat_map
    (fun f ->
      if not f.ff_direct then []
      else
        let range =
          if range_known f.ff_range then
            [
              Check_range
                {
                  var = f.ff_var;
                  offset = f.ff_offset;
                  width = f.ff_width;
                  lo = f.ff_range.lo;
                  hi = f.ff_range.hi;
                };
            ]
          else []
        in
        let len =
          match f.ff_role with
          | Len { scale; _ } ->
              [
                Check_len
                  {
                    var = f.ff_var;
                    offset = f.ff_offset;
                    width = f.ff_width;
                    scale;
                    loop = f.ff_loop;
                  };
              ]
          | _ -> []
        in
        range @ len)
    hf.hf_fields

let check_label = function
  | Check_range { var; _ } -> "range:" ^ var
  | Check_len { var; _ } -> "len:" ^ var

(* ---- summary table (CLI + golden test share this rendering) ---- *)

let ptr_count hf =
  List.length (List.filter (fun f -> match f.ff_role with Ptr _ -> true | _ -> false) hf.hf_fields)

let nested_ptr_count hf =
  List.length
    (List.filter
       (fun f -> match f.ff_role with Ptr { nested } -> nested | _ -> false)
       hf.hf_fields)

let render_table (classes : (string * t) list) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%-8s %-26s %5s %6s %6s %5s %6s" "class" "handler" "argB" "ptrs" "nested"
    "lines" "checks";
  List.iter
    (fun (cls, facts) ->
      List.iter
        (fun hf ->
          line "%-8s %-26s %5d %6d %6d %5d %6d" cls hf.hf_name hf.hf_arg_len
            (ptr_count hf) (nested_ptr_count hf) hf.hf_lines
            (List.length (checks hf)))
        facts.fd_handlers;
      let tot f = List.fold_left (fun a hf -> a + f hf) 0 facts.fd_handlers in
      line "%-8s %-26s %5s %6d %6d %5d %6d" cls
        (Printf.sprintf "= %d handlers" (List.length facts.fd_handlers))
        "" (tot ptr_count) (tot nested_ptr_count) (tot (fun hf -> hf.hf_lines))
        (tot (fun hf -> List.length (checks hf))))
    classes;
  Buffer.contents b
