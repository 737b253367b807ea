(** Registry of analyzed device classes: IR drivers and their
    extracted interface facts, keyed by [Defs.dev_class]. *)

val all : (string * Ir.driver) list

(** Every class's facts, extracted at start-up. *)
val facts : (string * Facts.t) list

val facts_for : string -> Facts.t option
val fact_for : dev_class:string -> cmd:int -> Facts.handler_fact option
