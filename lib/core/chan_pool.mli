(** A pool of CVD channels for one guest: a few parallel backend
    workers (so a blocking read does not stall other device files),
    each serving a descriptor ring, under the per-guest operation cap
    of §5.1.  Operations are routed to the least-loaded ring. *)

type t

exception Busy
(** The guest has [max_queued_ops] operations outstanding already. *)

val create : Channel.t array -> cap:int -> t

(** The designated channel for backend-to-frontend notifications. *)
val notify_channel : t -> Channel.t

val iter_channels : t -> (Channel.t -> unit) -> unit

(** The live signalling parameters, shared by every channel. *)
val signalling : t -> Config.signalling

(** Live signalling switch applied to every channel (see
    {!Channel.set_signalling}). *)
val set_signalling : t -> Config.signalling -> unit

(** Retire every channel (planned handoff — see {!Channel.retire}). *)
val retire : t -> unit

(** Every ring drained on both sides. *)
val quiescent : t -> bool

(** One request/response exchange over the least-loaded channel's
    ring, encoded and decoded through the channel's private copies
    (see {!Channel.call}). *)
val call : t -> trace:int -> encode:(bytes -> unit) -> decode:(bytes -> 'a) -> 'a

(** {!call} with a ready-encoded descriptor.  [timeout_us] overrides
    the configured RPC deadline (see {!Channel.rpc}). *)
val rpc : ?timeout_us:float -> t -> bytes -> bytes

type stats = {
  rpcs : int;
  legs : int;
  cold_legs : int;
  rejected_busy : int;
  timeouts : int;
  retries : int;
  stale_responses : int;
  protocol_violations : int;  (** responds on slots not in service *)
  req_poll_pickups : int;  (** request handoffs to a polling backend *)
  resp_poll_deliveries : int;  (** response handoffs to a polling waiter *)
  req_legs : int;  (** request doorbell legs sent *)
  resp_legs : int;  (** response doorbell legs sent (notifications not included) *)
  req_suppressed : int;  (** request signals to a backend inside its poll window *)
  resp_suppressed : int;  (** response signals to a waiter inside its poll window *)
  dropped_legs : int;  (** doorbell legs lost to the drop faults *)
  poll_windows : int;  (** backend poll windows opened *)
}

(** Every channel's {!Channel.stats}, summed (always on). *)
val stats : t -> stats

(** The signalling counts ([req_legs] … [poll_windows]) under their
    report names (["doorbell.req_legs"], ["hybrid.poll_windows"], …),
    sorted by name; zero counts are left out. *)
val signal_counts : stats -> (string * int) list
