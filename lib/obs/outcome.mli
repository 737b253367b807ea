(** Experiment results: metrics plus declared gates, one JSON schema.

    Every bench experiment and the hostile suite return one {!t}, and
    {!write} serialises it, so every [BENCH_<name>.json] and
    [HOSTILE_fuzz.json] has the same top-level keys:
    [experiment], [scale], [passed], [metrics], [gates].  A gate is
    data; the caller decides what a failed one does (the bench harness
    exits 1 naming it). *)

(** [Sim]: deterministic simulated time or a count, repeatable
    bit-for-bit per seed.  [Wall]: the host clock, which drifts run to
    run. *)
type clock = Sim | Wall

type metric = { key : string; value : float; unit : string; clock : clock }
type gate = { name : string; pass : bool; detail : string }
type t = { metrics : metric list; gates : gate list }

val metric : clock:clock -> unit:string -> string -> float -> metric
val gate : string -> bool -> string -> gate

(** The failed gates, in declaration order. *)
val failed : t -> gate list

(** Body of a JSON string literal: escapes the double quote, the
    backslash, newline and every other control byte. *)
val escape_json : string -> string

(** A JSON number; [nan] and the infinities become [null]. *)
val json_float : float -> string

val to_json : name:string -> scale:float -> t -> string

(** Write {!to_json} to [path]. *)
val write : path:string -> name:string -> scale:float -> t -> unit
