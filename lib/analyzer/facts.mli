(** Per-ioctl interface facts: the VIA-style argument-shape summary
    closing the loop between the static analyzer (§5.1) and runtime
    checking (§4).  For every handler the extraction reports which
    argument fields are pointers (and whether nested), which are
    lengths and what buffer they bound, which are indices and what
    table they select into, plus the value ranges the handler's own
    validity conditionals admit.  Fact records compile to {!check}
    lists — the generated sanitizers installed in front of the backend
    handlers — and seed the grammar-aware hostile generators. *)

type role =
  | Scalar
  | Ptr of { nested : bool }
  | Len of { bounds : string; scale : int }
  | Index of { table : string }

type range = { lo : int option; hi : int option }

type field_fact = {
  ff_var : string;
  ff_offset : int;
  ff_width : int;
  ff_role : role;
  ff_range : range;
  ff_loop : bool;
  ff_direct : bool;
}

type handler_fact = {
  hf_cmd : int;
  hf_name : string;
  hf_arg_len : int;
  hf_fields : field_fact list;
  hf_nested : bool;
  hf_lines : int;
}

type t = {
  fd_driver : string;
  fd_handlers : handler_fact list;
}

val of_driver : Ir.driver -> t
val find : t -> int -> handler_fact option

type check =
  | Check_range of {
      var : string;
      offset : int;
      width : int;
      lo : int option;
      hi : int option;
    }
  | Check_len of {
      var : string;
      offset : int;
      width : int;
      scale : int;
      loop : bool;
    }

(** The sanitizer "source" generated from a fact record: one entry per
    enforceable depth-1 constraint. *)
val checks : handler_fact -> check list

val check_label : check -> string

val ptr_count : handler_fact -> int
val nested_ptr_count : handler_fact -> int

(** Fact table rendering shared by [paradice analyze] and its golden
    test. *)
val render_table : (string * t) list -> string
