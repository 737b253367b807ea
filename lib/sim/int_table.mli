(** Hash tables keyed by [int] that neither hash nor compare keys
    through the runtime's polymorphic primitives: a key is its own hash
    ([x land max_int]; [Int.hash] would call [caml_hash]) and keys are
    compared with [Int.equal].  Dense keys (pids, descriptors, command
    numbers) spread over the buckets in order. *)

include Hashtbl.S with type key = int
