(** Mini-C intermediate representation of driver ioctl handlers.

    The paper's analyzer parses the driver's C source with Clang and
    slices it down to the statements affecting memory-operation
    arguments (§4.1, §5.3).  Here the "C source" is this IR: each
    supported driver ships a faithful IR mirror of its ioctl handler
    ([Radeon_ir] is the big one), and the analysis below plays the
    role of the Clang tool.  Tests cross-check the IR against the real
    (OCaml) driver by recording the operations both perform.

    Expressions evaluate to integers.  [Field] reads a little-endian
    integer out of a buffer previously filled by [Copy_from_user] —
    this is exactly the dependency that makes an operation's arguments
    dynamic ("nested copies"). *)

type expr =
  | Const of int
  | Arg (* the ioctl's untyped pointer argument *)
  | Var of string (* a local scalar *)
  | Field of { buf : string; offset : expr; width : int } (* load from copied buffer *)
  | Add of expr * expr
  | Mul of expr * expr

type cond = Eq of expr * expr | Lt of expr * expr | Ne of expr * expr

type stmt =
  | Copy_from_user of { dst_buf : string; src : expr; len : expr }
  | Copy_to_user of { dst : expr; src_buf : string; len : expr }
  | Let of string * expr
  | Store_field of { buf : string; offset : expr; width : int; value : expr }
      (* driver writes into a kernel buffer later copied back to user *)
  | For of { var : string; count : expr; body : stmt list }
  | If of { cond : cond; then_ : stmt list; else_ : stmt list }
  | Hw_op of string (* opaque device interaction: no memory operations *)

type handler = {
  cmd : int; (* ioctl command number (see Oskit.Ioctl_num) *)
  handler_name : string;
  body : stmt list;
}

type driver = {
  driver_name : string;
  version : string;
  handlers : handler list;
}

let find_handler driver cmd =
  List.find_opt (fun h -> h.cmd = cmd) driver.handlers

(* -- structural helpers used by the slicer -- *)

let rec expr_vars = function
  | Const _ | Arg -> []
  | Var v -> [ v ]
  | Field { buf; offset; _ } -> buf :: expr_vars offset
  | Add (a, b) | Mul (a, b) -> expr_vars a @ expr_vars b

let rec expr_bufs = function
  | Const _ | Arg | Var _ -> []
  | Field { buf; offset; _ } -> buf :: expr_bufs offset
  | Add (a, b) | Mul (a, b) -> expr_bufs a @ expr_bufs b

(** Count statements, For/If bodies included — the "lines of extracted
    code" metric the paper reports (~760 for Radeon). *)
let rec stmt_count stmts =
  List.fold_left
    (fun acc s ->
      acc
      +
      match s with
      | For { body; _ } -> 1 + stmt_count body
      | If { then_; else_; _ } -> 1 + stmt_count then_ + stmt_count else_
      | Copy_from_user _ | Copy_to_user _ | Let _ | Store_field _ | Hw_op _ -> 1)
    0 stmts
