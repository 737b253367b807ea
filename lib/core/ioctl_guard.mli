(** Generated per-ioctl argument sanitizers: {!Analyzer.Facts.check}
    records interpreted in front of the backend device handlers, plus
    the fact-driven hostile generators for the per-class fuzz
    campaigns.  Rejections hit [sanitize.<class>.<handler>.<check>] in
    {!Wire_spec.Coverage}; accepted analyzed commands hit
    [handler.<class>.<handler>]. *)

type verdict =
  | Pass
  | Reject of { handler : string; violated : string }
      (** handler name and the violated check's label *)

(** A device class's generated checks by command number, or
    [Unanalyzed] for a class the analyzer has no facts for.  Every
    analyzed class's checks are built once, at start-up, and only read
    afterwards; the backend takes its file's when it opens it. *)
type facts

val resolve : dev_class:string -> facts

(** [check_resolved facts ~cmd ~arg ~limits ~read] re-reads the depth-1
    argument struct via [read] and evaluates the command's generated
    checks.  Unknown commands and unreadable argument pointers [Pass]
    (the driver keeps its own ENOTTY/EFAULT semantics). *)
val check_resolved :
  facts ->
  cmd:int ->
  arg:int64 ->
  limits:Wire_spec.limits ->
  read:(addr:int -> len:int -> bytes) ->
  verdict

(** [check ~dev_class] is [check_resolved (resolve ~dev_class)]. *)
val check :
  dev_class:string ->
  cmd:int ->
  arg:int64 ->
  limits:Wire_spec.limits ->
  read:(addr:int -> len:int -> bytes) ->
  verdict

module Fuzz : sig
  type mem = {
    alloc : int -> int;
    write32 : addr:int -> int -> unit;
    write64 : addr:int -> int64 -> unit;
  }

  (** Analyzed commands of a class. *)
  val cmds : dev_class:string -> int list

  (** Build a well-formed argument struct in guest memory. *)
  val seed : rand:(int -> int) -> mem -> dev_class:string -> cmd:int -> int64

  (** A value violating a generated check, when one exists. *)
  val violation_value :
    rand:(int -> int) -> limits:Wire_spec.limits -> Analyzer.Facts.check -> int option

  (** Seed a well-formed struct, then inject one fact violation (or a
      wild pointer). *)
  val mutate :
    rand:(int -> int) ->
    limits:Wire_spec.limits ->
    mem ->
    dev_class:string ->
    cmd:int ->
    int64
end
