(** Extraction and execution of per-ioctl memory-operation lists
    (§4.1): offline symbolic evaluation yields static entries;
    handlers with nested copies keep their slice for just-in-time
    interpretation by the CVD frontend. *)

exception Needs_runtime of string

type absval = Known of int | Arg_plus of int

type proto_op =
  | Proto_from of { base : absval; len : int }
  | Proto_to of { base : absval; len : int }

val resolve_op : arg:int -> proto_op -> Hypervisor.Grant_table.op

(** Offline pass over a slice; raises {!Needs_runtime} when an
    argument depends on process memory. *)
val offline_eval : Ir.stmt list -> proto_op list

(** Interpret an extracted slice against real process memory
    ([read_user] reads the frontend's own process). *)
val runtime_eval :
  Ir.stmt list ->
  arg:int ->
  read_user:(addr:int -> len:int -> bytes) ->
  Hypervisor.Grant_table.op list

(** The generated "source file included in the CVD frontend". *)
type entry = Static of proto_op list | Jit of Ir.stmt list

type t = {
  driver : string;
  version : string;
  by_cmd : entry Sim.Int_table.t;
  mutable static_count : int;
  mutable jit_count : int;
  mutable extracted_lines : int;
}

val analyze : Ir.driver -> t
val entry_for : t -> int -> entry option

(** Commands whose slices contain nested copies (14 for the paper's
    Radeon). *)
val nested_cmds : t -> int list

(** The legitimate operations of [cmd] with argument [arg]; falls back
    to macro decoding for commands missing from the table. *)
val ops_for :
  t ->
  cmd:int ->
  arg:int ->
  read_user:(addr:int -> len:int -> bytes) ->
  Hypervisor.Grant_table.op list
