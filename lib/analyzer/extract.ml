(** Extraction and execution of memory-operation lists (§4.1).

    After slicing, each handler is classified:
    - {b Static}: every operation's arguments resolve offline to
      [arg + constant] / constant — the analyzer executes the slice
      symbolically once, at analysis time, and emits table entries;
    - {b Jit}: arguments depend on data copied from the process
      (nested copies) — the extracted slice is kept and interpreted by
      the CVD frontend at runtime, reading the {e local} guest process
      memory to resolve them just in time. *)

open Ir

exception Needs_runtime of string
(** Raised during offline evaluation when a value depends on process
    memory — the handler is then classified [Jit]. *)

(* ---- abstract values for offline evaluation ---- *)

type absval = Known of int | Arg_plus of int

let av_add a b =
  match (a, b) with
  | Known x, Known y -> Known (x + y)
  | Arg_plus x, Known y | Known y, Arg_plus x -> Arg_plus (x + y)
  | Arg_plus _, Arg_plus _ -> raise (Needs_runtime "arg + arg")

let av_mul a b =
  match (a, b) with
  | Known x, Known y -> Known (x * y)
  | _ -> raise (Needs_runtime "multiply involving arg")

(** An operation with symbolic base: resolved by substituting the
    actual [arg] at call time. *)
type proto_op =
  | Proto_from of { base : absval; len : int }
  | Proto_to of { base : absval; len : int }

let resolve_base ~arg = function Known k -> k | Arg_plus k -> arg + k

let resolve_op ~arg = function
  | Proto_from { base; len } ->
      Hypervisor.Grant_table.Copy_from_user { addr = resolve_base ~arg base; len }
  | Proto_to { base; len } ->
      Hypervisor.Grant_table.Copy_to_user { addr = resolve_base ~arg base; len }

(* ---- offline (symbolic) evaluation of a slice ---- *)

let offline_eval slice =
  let env : (string, absval) Hashtbl.t = Hashtbl.create 8 in
  let ops = ref [] in
  let rec eval_expr = function
    | Const k -> Known k
    | Arg -> Arg_plus 0
    | Var v -> (
        match Hashtbl.find_opt env v with
        | Some av -> av
        | None -> raise (Needs_runtime ("unbound " ^ v)))
    | Field _ -> raise (Needs_runtime "reads copied buffer")
    | Add (a, b) -> av_add (eval_expr a) (eval_expr b)
    | Mul (a, b) -> av_mul (eval_expr a) (eval_expr b)
  in
  let known e = match eval_expr e with
    | Known k -> k
    | Arg_plus _ -> raise (Needs_runtime "length depends on arg")
  in
  let eval_cond = function
    | Eq (a, b) -> (
        match (eval_expr a, eval_expr b) with
        | Known x, Known y -> x = y
        | _ -> raise (Needs_runtime "condition on arg"))
    | Ne (a, b) -> (
        match (eval_expr a, eval_expr b) with
        | Known x, Known y -> x <> y
        | _ -> raise (Needs_runtime "condition on arg"))
    | Lt (a, b) -> (
        match (eval_expr a, eval_expr b) with
        | Known x, Known y -> x < y
        | _ -> raise (Needs_runtime "condition on arg"))
  in
  let rec run stmts =
    List.iter
      (fun stmt ->
        match stmt with
        | Copy_from_user { src; len; dst_buf = _ } ->
            ops := Proto_from { base = eval_expr src; len = known len } :: !ops
        | Copy_to_user { dst; len; src_buf = _ } ->
            ops := Proto_to { base = eval_expr dst; len = known len } :: !ops
        | Let (v, e) -> Hashtbl.replace env v (eval_expr e)
        | Store_field _ -> ()
        | For { var; count; body } ->
            let n = known count in
            if n < 0 || n > 4096 then raise (Needs_runtime "unbounded loop");
            for i = 0 to n - 1 do
              Hashtbl.replace env var (Known i);
              run body
            done
        | If { cond; then_; else_ } -> if eval_cond cond then run then_ else run else_
        | Hw_op _ -> ())
      stmts
  in
  run slice;
  List.rev !ops

(* ---- runtime (just-in-time) evaluation of a slice ---- *)

(** Execute the extracted slice against the real process memory of the
    calling application.  [read_user] reads the frontend's own process
    (always permitted: it is the process's own memory), so nested
    pointers resolve to their true values. *)
let runtime_eval slice ~arg ~read_user =
  let env : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bufs : (string, bytes) Hashtbl.t = Hashtbl.create 8 in
  let ops = ref [] in
  let rec eval_expr = function
    | Const k -> k
    | Arg -> arg
    | Var v -> (
        match Hashtbl.find_opt env v with
        | Some x -> x
        | None -> Oskit.Errno.fail Oskit.Errno.EINVAL ("jit: unbound " ^ v))
    | Field { buf; offset; width } -> (
        let off = eval_expr offset in
        match Hashtbl.find_opt bufs buf with
        | None -> Oskit.Errno.fail Oskit.Errno.EINVAL ("jit: buffer not filled: " ^ buf)
        | Some b ->
            if off < 0 || off + width > Bytes.length b then
              Oskit.Errno.fail Oskit.Errno.EINVAL "jit: field outside buffer";
            (match width with
            | 4 -> Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
            | 8 -> Int64.to_int (Bytes.get_int64_le b off)
            | 1 -> Char.code (Bytes.get b off)
            | _ -> Oskit.Errno.fail Oskit.Errno.EINVAL "jit: bad field width"))
    | Add (a, b) -> eval_expr a + eval_expr b
    | Mul (a, b) -> eval_expr a * eval_expr b
  in
  let eval_cond = function
    | Eq (a, b) -> eval_expr a = eval_expr b
    | Ne (a, b) -> eval_expr a <> eval_expr b
    | Lt (a, b) -> eval_expr a < eval_expr b
  in
  let rec run stmts =
    List.iter
      (fun stmt ->
        match stmt with
        | Copy_from_user { dst_buf; src; len } ->
            let addr = eval_expr src and len = eval_expr len in
            if len < 0 then Oskit.Errno.fail Oskit.Errno.EINVAL "jit: negative length";
            Hashtbl.replace bufs dst_buf (read_user ~addr ~len);
            ops := Hypervisor.Grant_table.Copy_from_user { addr; len } :: !ops
        | Copy_to_user { dst; len; src_buf = _ } ->
            let addr = eval_expr dst and len = eval_expr len in
            ops := Hypervisor.Grant_table.Copy_to_user { addr; len } :: !ops
        | Let (v, e) -> Hashtbl.replace env v (eval_expr e)
        | Store_field { buf; offset; width; value } -> (
            match Hashtbl.find_opt bufs buf with
            | None -> ()
            | Some b ->
                let off = eval_expr offset and v = eval_expr value in
                if off >= 0 && off + width <= Bytes.length b then
                  match width with
                  | 4 -> Bytes.set_int32_le b off (Int32.of_int v)
                  | 8 -> Bytes.set_int64_le b off (Int64.of_int v)
                  | _ -> ())
        | For { var; count; body } ->
            let n = eval_expr count in
            if n < 0 || n > 65536 then
              Oskit.Errno.fail Oskit.Errno.EINVAL "jit: loop bound out of range";
            for i = 0 to n - 1 do
              Hashtbl.replace env var i;
              run body
            done
        | If { cond; then_; else_ } -> if eval_cond cond then run then_ else run else_
        | Hw_op _ -> ())
      stmts
  in
  run slice;
  List.rev !ops

(* ---- the generated "source file included in the CVD frontend" ---- *)

type entry =
  | Static of proto_op list
  | Jit of stmt list (* the extracted code, interpreted at runtime *)

type t = {
  driver : string;
  version : string;
  by_cmd : entry Sim.Int_table.t;
  mutable static_count : int;
  mutable jit_count : int;
  mutable extracted_lines : int; (* total lines of extracted slices *)
}

let analyze (driver : driver) =
  let t =
    {
      driver = driver.driver_name;
      version = driver.version;
      by_cmd = Sim.Int_table.create 32;
      static_count = 0;
      jit_count = 0;
      extracted_lines = 0;
    }
  in
  List.iter
    (fun h ->
      let slice = Slice.of_handler h in
      match offline_eval slice with
      | protos ->
          t.static_count <- t.static_count + 1;
          Sim.Int_table.replace t.by_cmd h.cmd (Static protos)
      | exception Needs_runtime _ ->
          t.jit_count <- t.jit_count + 1;
          t.extracted_lines <- t.extracted_lines + Slice.extracted_lines slice;
          Sim.Int_table.replace t.by_cmd h.cmd (Jit slice))
    driver.handlers;
  t

let entry_for t cmd = Sim.Int_table.find_opt t.by_cmd cmd

(** Commands whose slices contain nested copies. *)
let nested_cmds t =
  Sim.Int_table.fold
    (fun cmd entry acc ->
      match entry with
      | Jit slice when Slice.has_nested_ops slice -> cmd :: acc
      | Jit _ | Static _ -> acc)
    t.by_cmd []
  |> List.sort compare

(** The legitimate operations of [cmd] with argument [arg].  Falls
    back to macro decoding for commands absent from the analyzed table
    (a driver update added them; the table needs regenerating —
    meanwhile the macro gives the common case). *)
let ops_for t ~cmd ~arg ~read_user =
  match entry_for t cmd with
  | Some (Static protos) -> List.map (resolve_op ~arg) protos
  | Some (Jit slice) -> runtime_eval slice ~arg ~read_user
  | None -> Cmd_macro.ops_of_cmd cmd ~arg
