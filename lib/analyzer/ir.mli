(** Mini-C intermediate representation of driver ioctl handlers — the
    "driver source code" the analyzer slices (§4.1).  [Field] loads
    from a buffer filled by an earlier copy: exactly the dependency
    that makes arguments dynamic (nested copies). *)

type expr =
  | Const of int
  | Arg (** the ioctl's untyped pointer *)
  | Var of string
  | Field of { buf : string; offset : expr; width : int }
  | Add of expr * expr
  | Mul of expr * expr

type cond = Eq of expr * expr | Lt of expr * expr | Ne of expr * expr

type stmt =
  | Copy_from_user of { dst_buf : string; src : expr; len : expr }
  | Copy_to_user of { dst : expr; src_buf : string; len : expr }
  | Let of string * expr
  | Store_field of { buf : string; offset : expr; width : int; value : expr }
  | For of { var : string; count : expr; body : stmt list }
  | If of { cond : cond; then_ : stmt list; else_ : stmt list }
  | Hw_op of string (** opaque device interaction: no memory operations *)

type handler = {
  cmd : int;
  handler_name : string;
  body : stmt list;
}

type driver = { driver_name : string; version : string; handlers : handler list }

val find_handler : driver -> int -> handler option
val expr_vars : expr -> string list
val expr_bufs : expr -> string list

(** Statement count including nested bodies (the "extracted lines"
    metric). *)
val stmt_count : stmt list -> int
