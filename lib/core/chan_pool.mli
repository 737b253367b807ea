(** A pool of CVD channels for one guest: a few parallel backend
    workers (so a blocking read does not stall other device files),
    each serving a descriptor ring, under the per-guest operation cap
    of §5.1.  Operations are routed to the least-loaded ring. *)

type t

exception Busy
(** The guest has [max_queued_ops] operations outstanding already. *)

(** [rng] switches dispatch from the full least-loaded scan to
    power-of-two-choices over its (deterministic) stream: probe two
    distinct rings, take the lighter, ties to the lower index.  O(1)
    per op instead of O(channels); the backend passes a per-link
    stream derived from [Config.dispatch_seed] when
    [Config.dispatch = Two_choices]. *)
val create : ?rng:Sim.Rng.t -> Channel.t array -> cap:int -> t

(** Operations currently in flight or waiting for a ring slot. *)
val pending : t -> int

(** The per-guest operation cap ({!Busy} past it). *)
val cap : t -> int

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
    ring.  [timeout_us] overrides the configured RPC deadline (see
    {!Channel.rpc}). *)
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
}

val stats : t -> stats
