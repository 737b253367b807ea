(** CVD wire protocol: file operations and results serialised into the
    shared page (§5.1).

    Every message form is declared exactly once as a {!Wire_spec}
    field spec ({!req_specs} / {!resp_specs}), compiled once at module
    initialisation into the encoder, the bounds-checked decoder and the
    sanitizer; the {!Fuzz} generator and grammar-aware mutator draw
    from the same table. *)

type request =
  | Ropen of { path : string }
  | Rrelease of { vfd : int }
  | Rread of { vfd : int; buf : int; len : int }
  | Rwrite of { vfd : int; buf : int; len : int }
  | Rioctl of { vfd : int; cmd : int; arg : int64 }
  | Rmmap of { vfd : int; gva : int; len : int; pgoff : int }
  | Rfault of { vfd : int; gva : int }
  | Rmunmap of { vfd : int; gva : int; len : int }
  | Rpoll of { vfd : int; want_in : bool; want_out : bool; timeout_us : float }
  | Rfasync of { vfd : int; on : bool }
  | Rnoop (** the §6.1.1 latency microbenchmark *)
  | Rbatch of request list
      (** io_uring-style multi-op descriptor: one ring slot / one
          doorbell carries a length-prefixed batch of small file ops.
          Only fixed-size data-path operations (release / read / write /
          ioctl / poll / fasync / noop) are batchable; batches do not
          nest. *)

type response =
  | Rok of int
  | Rerr of int (** positive errno code *)
  | Rpoll_reply of { pollin : bool; pollout : bool }
  | Rbatch_reply of response list
      (** one sub-response per sub-op, in submission order *)

val slot_size : int

(** Most sub-ops one {!Rbatch} descriptor can carry (wire-format
    bound: the batch payload stays below the trace word). *)
val max_batch_ops : int

(** Transport sequence number, stamped into a descriptor by the
    channel at publish time and echoed back in the response so a late
    answer to a timed-out attempt can never be paired with a resend. *)
val set_seq : bytes -> int -> unit

val get_seq : bytes -> int

(** Trace id of the forwarded operation ({!Obs.Trace.mint_id}),
    stamped by the frontend next to the sequence number so transport,
    backend and hypervisor spans attribute to it; 0 = untraced. *)
val trace_off : int

val set_trace : bytes -> int -> unit
val get_trace : bytes -> int

exception Malformed of string

(** Raised by the request encoder and {!check_request} when a field
    value has no wire representation — e.g. an [Ropen] path longer
    than the 256-byte wire cap: the encoder rejects exactly what the
    decoder would, instead of blitting past the path slot. *)
exception Oversized of { field : string; length : int; limit : int }

(** The spec table the codecs are compiled from: one
    {!Wire_spec.spec} per singleton request opcode (the structural
    [Rbatch] form, opcode 12, is the count @12 / length-prefixed
    record grammar over the [batchable] entries). *)
val req_specs : request Wire_spec.spec list

(** Response specs (tags 1-3; the [Rbatch_reply] record grammar is
    tag 4). *)
val resp_specs : response Wire_spec.spec list

(** Encode into a fresh slot-sized buffer ({!encode_request_into}). *)
val encode_request : grant_ref:int -> pid:int -> request -> bytes

(** Encode into the first {!slot_size} bytes of a caller-owned buffer,
    every byte of them rewritten, so a buffer reused across operations
    carries nothing of the last one. *)
val encode_request_into : bytes -> grant_ref:int -> pid:int -> request -> unit

(** Raise whatever {!encode_request_into} would refuse [request] with
    ({!Oversized}, or [Invalid_argument] for a malformed batch),
    without writing: a frontend refuses a request before it claims a
    ring slot. *)
val check_request : request -> unit

(** Returns [(request, grant_ref, pid)]; raises {!Malformed} on
    garbage (a malicious frontend cannot crash the backend). *)
val decode_request : bytes -> request * int * int

(** Header words of a descriptor (u32, so never negative). *)
val get_grant_ref : bytes -> int

val get_pid : bytes -> int

(** A field that failed sanitization. *)
type violation = Wire_spec.violation = { field : string; detail : string }

(** Raised by {!read_request} with the field that failed sanitization. *)
exception Rejected of violation

(** Post-decode, pre-dispatch sanitization (§4, §7.1): bound every
    field of a decoded request.  Returns the request (poll timeouts
    clamped into [[0, poll_timeout_cap_us]]) or the offending field.
    Oversized reads/writes, non-devfs or NUL-bearing open paths,
    out-of-range vfd/grant_ref/pid and wrapping mmap ranges are all
    rejected here so nothing downstream sees them.  The backend builds
    one {!Wire_spec.limits} from its config and reuses it per
    request. *)
val validate_limits :
  limits:Wire_spec.limits -> request * int * int -> (request, violation) result

(** The backend's read of a descriptor: decode and, when [sanitize],
    the {!validate_limits} checks, in one pass over the (private) copy
    that allocates only the request value.  The checks run on the typed
    value the decode built, so the request returned is the one checked.
    Raises {!Malformed} on garbage — ahead of any field violation, as a
    {!decode_request} followed by {!validate_limits} would — and
    {!Rejected} on the first violation. *)
val read_request : limits:Wire_spec.limits -> sanitize:bool -> bytes -> request

(** Largest virtual descriptor number {!validate_limits} accepts. *)
val max_vfd : int

(** Encode into a fresh slot-sized buffer ({!encode_response_into}). *)
val encode_response : response -> bytes

(** Encode into the first {!slot_size} bytes of a caller-owned buffer,
    every byte of them rewritten. *)
val encode_response_into : bytes -> response -> unit

val decode_response : bytes -> response
val request_name : request -> string

(** Spec-derived fuzzing: seeded random requests that satisfy every
    sanitizer rule ({!Fuzz.generate}), and a grammar-aware mutator
    that drives exactly one element of an encoded descriptor hostile —
    a header word, a batch count, a record length or tag, or one
    declared field under its own spec ({!Fuzz.mutate}). *)
module Fuzz : sig
  (** Bounds used when generating valid skeletons. *)
  val default_limits : Wire_spec.limits

  (** [descriptor rng ~grant_ref ~pid] is an encoded slot: a valid
      skeleton, mutated 7 times out of 8. *)
  val descriptor :
    ?limits:Wire_spec.limits -> Sim.Rng.t -> grant_ref:int -> pid:int -> bytes
end
