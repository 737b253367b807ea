(** Declarative wire-format specifications (Narcissus-style, §5.1).

    Every CVD message is declared {e once} as a typed field spec —
    name, slot offset, read width, bounds, clamp/reject policy — and
    {!compile} turns each declaration, once at module initialisation,
    into a {!codec}:

    - a direct writer, which refuses to build a message the reader
      would reject ({!Oversized}), so encode and decode agree about
      which messages exist;
    - a direct, bounds-checked reader, raising {!Malformed} on any
      out-of-spec input;
    - a sanitizer over the typed value the reader built, reproducing
      the field bounds and clamp policies of the hand-written
      sanitizer it replaced ({!Rejected});

    with offsets resolved, each sanitizer rule pointing at its field's
    typed getter, and every reject message and {!Coverage} label built
    once per spec.  Nothing on the forwarding path interprets the
    table.  The table also drives a seeded random message generator
    ({!generate}) and a grammar-aware hostile mutator ({!hostile_field})
    for the fuzz suites: valid skeleton, one field driven hostile.

    Hand-written offset code described each operation three times
    (encode, decode, validate) and the copies drifted; here the spec
    table is the only place a field's layout or bounds appear. *)

(** Raised by derived decoders on any malformed input.  [Proto]
    re-exports this exception as [Proto.Malformed]. *)
exception Malformed of string

(** Raised by derived encoders when a field value cannot be
    represented on the wire (e.g. an over-long [Ropen] path): the
    encoder rejects exactly what the decoder would, instead of
    corrupting adjacent slot words. *)
exception Oversized of { field : string; length : int; limit : int }

(** Sanitization bounds that come from live configuration rather than
    the wire format itself. *)
type limits = {
  max_transfer_bytes : int;
  poll_timeout_cap_us : float;
  grant_capacity : int;
}

(** Integer read policy — the one place wire signedness is decided.
    [U32] reads 4 bytes and masks to a non-negative int (so [< 0]
    checks downstream are dead by construction); [U63] reads 8 bytes
    through [Int64.to_int], which drops bit 63: a u64 with bit 62 set
    surfaces as a negative int and is caught by the derived
    sanitizer's range check, and one with only bit 63 set reads as its
    low 63 bits.  The value checked is the value used either way. *)
type width = U32 | U63

(** Upper bounds in validation rules; [Lit] is wire-structural,
    the rest resolve against {!limits} at validation time. *)
type bound = Lit of int | Max_transfer | Max_mmap | Max_vfd | No_bound

(** A field's wire kind, indexed by the OCaml type it carries. *)
type _ kind =
  | Int : width -> int kind
  | Raw64 : int64 kind  (** opaque 64-bit payload (ioctl arg), no integer policy *)
  | Flag : bool kind  (** u32, non-zero = true *)
  | Timeout : { reject : string } -> float kind
      (** float as raw IEEE-754 bits; NaN / negative / infinity are
          rejected at {e decode} with [Malformed reject] — the single
          consolidated poll-timeout policy *)
  | Str : { len_off : int; max : int; reject : string } -> string kind
      (** u32 length at [len_off], bytes at the field offset; decode
          rejects length > [max] with [Malformed reject], encode
          rejects the same lengths with {!Oversized} *)

(** One payload field of message type ['m]: its one declaration, plus
    the typed getter that projects it out of a message. *)
type ('m, 'a) field = { fname : string; off : int; kind : 'a kind; get : 'm -> 'a }

type 'm any_field = Field : ('m, 'a) field -> 'm any_field

(** A message's payload, in wire order, with its constructor of fixed
    arity (no message has more than three payload fields). *)
type 'm payload =
  | P0 : { make : vfd:int -> 'm } -> 'm payload
  | P1 : { f1 : ('m, 'a) field; make : vfd:int -> 'a -> 'm } -> 'm payload
  | P2 : {
      f1 : ('m, 'a) field;
      f2 : ('m, 'b) field;
      make : vfd:int -> 'a -> 'b -> 'm;
    }
      -> 'm payload
  | P3 : {
      f1 : ('m, 'a) field;
      f2 : ('m, 'b) field;
      f3 : ('m, 'c) field;
      make : vfd:int -> 'a -> 'b -> 'c -> 'm;
    }
      -> 'm payload

(** One ordered sanitization rule; rules run in declaration order and
    the first failure names its field.  A rule names its field
    (["vfd"] is the header word); {!compile} resolves the name to the
    field's typed getter and rejects a rule whose field is missing or
    of the wrong kind. *)
type vcheck =
  | Vrange of { field : string; min : int; max : bound; detail : string }
  | Vwrap of { base : string; len : string; detail : string }
      (** [base < 0 || base > max_int - len]: address range wraps *)
  | Vtimeout of { field : string; detail : string }
      (** reject non-finite/negative, clamp values above
          [limits.poll_timeout_cap_us] to the cap *)
  | Vpath of { field : string; detail : string }  (** {!valid_path} *)

type violation = { field : string; detail : string }

(** Raised by a codec's sanitizer: the first rule the message
    breaks.  [Proto] re-exports it as [Proto.Rejected]. *)
exception Rejected of violation

(** The complete declaration of one message form. *)
type 'm spec = {
  op : int;  (** wire opcode / tag *)
  name : string;
  takes_vfd : bool;  (** header vfd word is meaningful *)
  batchable : bool;  (** may ride in a multi-op descriptor *)
  vfd : 'm -> int;  (** the header vfd word (0 unless [takes_vfd]) *)
  payload : 'm payload;  (** singleton offsets *)
  vchecks : vcheck list;  (** sanitizer rules, in evaluation order *)
}

(** The payload fields, in wire order. *)
val fields : 'm spec -> 'm any_field list

val max_vfd : int

(** The devfs-path predicate shared by live sanitization and checkpoint
    restore: under [/dev/], at most 256 bytes, no NUL, no [..]. *)
val valid_path : string -> bool

(** Raw little-endian slot words: the byte-level primitives every
    codec (and [Proto]'s header and record words) is built from.
    [r32] masks to non-negative; 8-byte words read under the [U63]
    policy of {!width}. *)
val w32 : bytes -> int -> int -> unit

val r32 : bytes -> int -> int

(** A spec compiled once into direct code: a closure per field with
    its offset, policy and reject message resolved, and a sanitizer
    chain with each rule resolved to its field's typed getter and its
    bound.  Payload offsets are the spec's singleton offsets plus a
    [base] the caller picks (0 for a singleton slot, the record start
    minus the singleton header for a batch record). *)
type 'm codec = {
  field_end : int;  (** the slot offset just past the last payload byte (0: none) *)
  write : bytes -> int -> 'm -> unit;
      (** [write b base m] stores every payload field; raises
          {!Oversized} per the field specs *)
  read : bytes -> int -> int -> bool -> 'm;
      (** [read b base vfd in_batch] reads every payload field under
          its policy, in wire order, and builds the message;
          [in_batch] prefixes a policy reject message with ["batch "],
          as the historical batch decoder did *)
  refuse : 'm -> unit;
      (** raise the {!Oversized} that [write] would raise on a whole
          slot, without writing anything *)
  check : limits -> 'm -> 'm;
      (** run the spec's [vchecks] in order on the typed value: raise
          {!Rejected} at the first failure, else return the message,
          physically unchanged unless a clamp rule fired *)
}

(** Raises [Invalid_argument] if a rule names a missing field or one
    of the wrong kind. *)
val compile : 'm spec -> 'm codec

(** Derived generator: a random message that satisfies every decode
    policy and sanitizer rule under [limits] (a valid skeleton for the
    grammar-aware fuzzer, and the domain for round-trip properties). *)
val generate : 'm spec -> limits -> Sim.Rng.t -> 'm

(** Grammar-aware hostile mutation: overwrite one declared field (at
    [off + base]) in an encoded slot with a value chosen to violate
    that field's own policy — u64s with bit 63 set into [U63] words
    (negative once read when bit 62 is set too, see {!width}), NaN /
    negative / infinity bits into [Timeout] words, over-limit lengths
    into [Str] length words. *)
val hostile_field : Sim.Rng.t -> bytes -> base:int -> 'm any_field -> unit

(** Decode-branch / sanitizer coverage registry.  Codecs report every
    branch they take ({!hit}) when enabled; the fuzz suites count the
    labels in a {!snapshot} to compare how much of the message grammar
    a campaign reached.  Disabled (zero-cost beyond one load) by
    default. *)
module Coverage : sig
  val enable : unit -> unit
  val disable : unit -> unit

  (** Whether hits are being counted: guard a label that costs a
      concatenation or format to build. *)
  val enabled : unit -> bool

  val reset : unit -> unit
  val hit : string -> unit

  (** [(branch, hits)] pairs, sorted by branch label. *)
  val snapshot : unit -> (string * int) list
end
