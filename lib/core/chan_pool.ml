(** A pool of CVD channels for one guest.

    The backend runs one worker per channel, giving each guest a few
    parallel servers (the paper's per-guest wait queue drained by
    backend threads, §5.1): a process blocked in a long read or poll
    does not stall the guest's other device files.  Each channel is a
    descriptor ring, so the pool no longer hands out exclusive
    channels — it routes each operation to the least-loaded ring and
    lets the ring's own slot accounting apply backpressure.  The
    per-guest operation cap (default 100) still bounds how many
    operations may be outstanding or waiting — the DoS protection of
    §5.1. *)

type t = {
  channels : Channel.t array;
  cap : int;
  mutable pending : int; (* in flight + waiting for a ring slot *)
  mutable rejected_busy : int;
}

exception Busy
(** Raised when the guest already has [max_queued_ops] operations
    outstanding. *)

let create channels ~cap = { channels; cap; pending = 0; rejected_busy = 0 }

(** The designated channel for backend-to-frontend notifications. *)
let notify_channel t = t.channels.(0)

let iter_channels t f = Array.iter f t.channels

(** The pool's live signalling parameters (every channel shares them). *)
let signalling t = Channel.signalling t.channels.(0)

(** Live signalling switch across the whole pool (an operator flipping
    a guest's links between interrupts / hybrid / polling mid-stream). *)
let set_signalling t s = Array.iter (fun c -> Channel.set_signalling c s) t.channels

(** Retire every channel (planned handoff): stragglers inside {!rpc}
    raise {!Channel.Retired} and replay on the successor pool. *)
let retire t = Array.iter Channel.retire t.channels

(** Every ring drained on both sides. *)
let quiescent t = Array.for_all Channel.quiescent t.channels

(* Least-loaded dispatch; strict [<] so ties go to the lowest index
   (a fully idle guest always lands on channel 0). *)
let least_loaded t =
  let best = ref t.channels.(0) in
  let best_load = ref (Channel.load t.channels.(0)) in
  for i = 1 to Array.length t.channels - 1 do
    let l = Channel.load t.channels.(i) in
    if l < !best_load then begin
      best := t.channels.(i);
      best_load := l
    end
  done;
  !best

(* Admit one operation under the per-guest cap and run [exchange] on
   the least-loaded ring. *)
let admit t exchange =
  if t.pending >= t.cap then begin
    t.rejected_busy <- t.rejected_busy + 1;
    raise Busy
  end;
  t.pending <- t.pending + 1;
  Fun.protect
    ~finally:(fun () -> t.pending <- t.pending - 1)
    (fun () -> exchange (least_loaded t))

let call t ~trace ~encode ~decode =
  admit t (fun channel -> Channel.call channel ~trace ~encode ~decode)

let rpc ?timeout_us t bytes =
  admit t (fun channel -> Channel.rpc ?timeout_us channel bytes)

type stats = {
  rpcs : int;
  legs : int;
  cold_legs : int;
  rejected_busy : int;
  timeouts : int;
  retries : int;
  stale_responses : int;
  protocol_violations : int;
  req_poll_pickups : int;
  resp_poll_deliveries : int;
  req_legs : int;
  resp_legs : int;
  req_suppressed : int;
  resp_suppressed : int;
  dropped_legs : int;
  poll_windows : int;
}

(* Each channel's record is built once, not once per field: the
   benchmark reads every guest's stats before it takes its timed
   window's closing allocation count, so on a fleet of pools what this
   allocates shows in the per-op figure. *)
let stats t =
  let each = Array.map Channel.stats t.channels in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 each in
  {
    rpcs = sum (fun s -> s.Channel.rpcs);
    legs = sum (fun s -> s.Channel.legs);
    cold_legs = sum (fun s -> s.Channel.cold_legs);
    rejected_busy = t.rejected_busy;
    timeouts = sum (fun s -> s.Channel.timeouts);
    retries = sum (fun s -> s.Channel.retries);
    stale_responses = sum (fun s -> s.Channel.stale_responses);
    protocol_violations = sum (fun s -> s.Channel.protocol_violations);
    req_poll_pickups = sum (fun s -> s.Channel.req_poll_pickups);
    resp_poll_deliveries = sum (fun s -> s.Channel.resp_poll_deliveries);
    req_legs = sum (fun s -> s.Channel.req_legs);
    resp_legs = sum (fun s -> s.Channel.resp_legs);
    req_suppressed = sum (fun s -> s.Channel.req_suppressed);
    resp_suppressed = sum (fun s -> s.Channel.resp_suppressed);
    dropped_legs = sum (fun s -> s.Channel.dropped_legs);
    poll_windows = sum (fun s -> s.Channel.poll_windows);
  }

(** The signalling counts under their report names, sorted by name;
    zero counts are left out. *)
let signal_counts s =
  List.filter
    (fun (_, n) -> n > 0)
    [
      ("doorbell.req_legs", s.req_legs);
      ("doorbell.req_suppressed", s.req_suppressed);
      ("doorbell.resp_legs", s.resp_legs);
      ("doorbell.resp_suppressed", s.resp_suppressed);
      ("fault.doorbell_dropped", s.dropped_legs);
      ("hybrid.poll_windows", s.poll_windows);
    ]
