(** Access permissions for page-table and EPT entries. *)

type t = { read : bool; write : bool; exec : bool }

let none = { read = false; write = false; exec = false }
let r = { read = true; write = false; exec = false }
let rw = { read = true; write = true; exec = false }
let rwx = { read = true; write = true; exec = true }

(** x86 cannot express write-only mappings (§5.3 change (iv)); the
    constructors above deliberately offer no [w]. *)

type access = Read | Write | Exec

let allows t = function
  | Read -> t.read
  | Write -> t.write
  | Exec -> t.exec

(** [subsumes a b]: every access [b] grants, [a] grants too. *)
let subsumes a b =
  (a.read || not b.read) && (a.write || not b.write) && (a.exec || not b.exec)

let without_read t = { t with read = false }

let equal a b = a = b

let pp_access ppf = function
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"
  | Exec -> Fmt.string ppf "exec"
