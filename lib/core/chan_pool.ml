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
  rng : Sim.Rng.t option; (* Some -> power-of-two-choices dispatch *)
  mutable pending : int; (* in flight + waiting for a ring slot *)
  mutable rejected_busy : int;
}

exception Busy
(** Raised when the guest already has [max_queued_ops] operations
    outstanding. *)

let create ?rng channels ~cap =
  { channels; cap; rng; pending = 0; rejected_busy = 0 }
let pending t = t.pending
let cap t = t.cap

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

(* Power-of-two-choices: probe two distinct rings from the pool's
   deterministic stream and take the lighter (ties -> lower index, like
   the full scan).  O(1) per op where the scan is O(channels) — the
   win that matters once channels_per_guest stops being tiny — while
   the balls-in-bins bound keeps the worst ring within a constant
   factor of least-loaded. *)
let two_choices t rng =
  let n = Array.length t.channels in
  if n = 1 then t.channels.(0)
  else begin
    let a = Sim.Rng.int rng n in
    let b =
      (* second probe distinct from the first: draw from [n-1] and
         skip over [a], keeping the distribution uniform *)
      let b = Sim.Rng.int rng (n - 1) in
      if b >= a then b + 1 else b
    in
    let a, b = if a < b then (a, b) else (b, a) in
    if Channel.load t.channels.(b) < Channel.load t.channels.(a) then
      t.channels.(b)
    else t.channels.(a)
  end

let pick_channel t =
  match t.rng with None -> least_loaded t | Some rng -> two_choices t rng

let rpc ?timeout_us t bytes =
  if t.pending >= t.cap then begin
    t.rejected_busy <- t.rejected_busy + 1;
    raise Busy
  end;
  t.pending <- t.pending + 1;
  Fun.protect
    ~finally:(fun () -> t.pending <- t.pending - 1)
    (fun () -> Channel.rpc ?timeout_us (pick_channel t) bytes)

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
}

let stats t =
  let sum f = Array.fold_left (fun acc c -> acc + f (Channel.stats c)) 0 t.channels in
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
  }
