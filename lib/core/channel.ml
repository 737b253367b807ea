(** CVD transport: shared memory descriptor ring + inter-VM signalling
    (§5.1).

    The frontend serialises file operations into ring slots in the
    shared region and rings a doorbell; the backend drains every ready
    descriptor per wakeup and publishes responses the same way back.

    {b Signalling} is one poll-then-sleep machine, parameterised by
    {!Config.signalling}: a receiver whose ring runs dry polls it for a
    window, then sleeps behind a doorbell.  A signal to a receiver
    inside its window is a cheap shared-page handoff; a signal to a
    sleeping one is a leg (an inter-VM interrupt, ~17 us, under the
    default parameters).  Interrupts, dedicated polling and the
    NAPI-style hybrid are three parameter sets of this machine.

    {b Ring layout.}  The shared region is a control page followed by
    slot pages:
    - control page: one u32 state word per slot
      (free / req-ready / in-service / resp-ready / delivered) at
      [4*i], and the asynchronous notification counter at [512];
    - slot [i]'s 1 KiB descriptor at [page_size + i * slot_size];
      the response overwrites the request in place.

    Up to [Config.ring_slots] RPCs may be in flight per channel; a
    publisher with no free slot blocks until one completes.

    {b Doorbell coalescing.}  A doorbell leg is sent only when the
    receiver might actually be asleep: while the backend is awake and
    draining — or an earlier leg is still in flight — newly published
    descriptors are picked up by the backend's next head re-scan, or
    by the in-flight leg, at no signalling cost.  Responses coalesce
    the same way: one leg delivers every response marked ready since
    it was raised.  A busy receiver polls the ring head between
    operations and never takes an interrupt; only an idle (possibly
    cold) receiver needs one.

    {b Sequencing.}  Every publish stamps a fresh sequence number into
    the descriptor ({!Proto.set_seq}); the backend echoes the sequence
    it drained into its response.  A waiter discards a response whose
    sequence is not its current attempt's (a late answer to a
    timed-out attempt — at-least-once retries make these legitimate)
    and republishes its own request, which the stale response
    clobbered.

    A channel whose receiving endpoint has been idle longer than the
    cold threshold pays a per-leg surcharge (idle worker wakeup — see
    {!Config}). *)

(* Fault sites (driven by [Config.injector]).  Keys are stable strings
   so tests and experiments can arm them by name; all of them act at
   doorbell-leg granularity — a dropped doorbell loses the interrupt,
   not the descriptor, so only a deadline recovers. *)
let site_drop_req = "chan.drop_req"
let site_drop_resp = "chan.drop_resp"
let site_corrupt_req = "chan.corrupt_req"
let site_delay_req = "chan.delay_req"

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  front_view : Hypervisor.Shared_page.view;
  back_view : Hypervisor.Shared_page.view;
  req_rx : unit Sim.Mailbox.t; (* backend wakes here on request doorbells *)
  resp_box : unit Sim.Mailbox.t array; (* per-slot response delivery *)
  notify_rx : unit Sim.Mailbox.t; (* frontend async-notification wakeups *)
  free_slots : int Sim.Mailbox.t; (* free slot numbers; publishers wait here *)
  mutable held : int; (* slots claimed by frontend RPCs *)
  mutable next_seq : int;
  service_seq : int array; (* backend: seq drained per slot, echoed back *)
  service_active : bool array; (* backend: slot claimed and not yet answered.
                                   Backend-private — unlike the control-page
                                   state word, a guest cannot rewrite it — so
                                   it is the authority on whether a respond
                                   pairs with an outstanding claim. *)
  req : dir;
  resp : dir;
  mutable signalling : Config.signalling; (* live: see [set_signalling] *)
  mutable poll_budget_left : float; (* backend dry-poll budget this episode *)
  mutable scan_cursor : int; (* backend drain fairness *)
  mutable legs : int;
  mutable cold_legs : int;
  mutable rpcs : int;
  mutable in_flight : int; (* frontend ops claimed on this ring *)
  mutable max_in_flight : int;
  mutable in_service : int; (* descriptors drained, not yet answered *)
  mutable notifications : int;
  mutable pending_notify : bool; (* signal collapsing: one interrupt pending *)
  mutable notify_seen : int; (* frontend: last counter value observed *)
  mutable stale_responses : int;
  mutable protocol_violations : int; (* responds on slots not in service *)
  mutable dropped_legs : int; (* doorbell legs lost to the drop faults *)
  mutable poll_windows : int; (* backend poll windows opened *)
  (* A killed channel (driver-VM crash) never completes an exchange
     again: senders fail fast with EIO, blocked receivers are woken so
     they can observe the death instead of hanging forever. *)
  mutable dead : bool;
  (* A retired channel (planned handoff: upgrade/migration) is dead
     with different semantics at the sender: the transport is being
     replaced, not lost, so stragglers raise {!Retired} and the
     frontend parks them for replay on the successor pool instead of
     faulting the session. *)
  mutable retired : bool;
  mutable timeouts : int;
  mutable retries : int;
  tracer : Obs.Trace.t; (* from [Config.tracer]; disabled = no-op *)
  chan_uid : int; (* distinguishes this ring's counter series *)
  service_trace : int array; (* backend: trace id drained per slot *)
}

(* One signalling direction: requests towards the backend worker, or
   responses (and notifications) towards the frontend. *)
and dir = {
  spec : spec;
  mutable watchers : int; (* receivers inside their poll window: the
                              backend worker, or poll-watching waiters *)
  mutable awake : bool; (* receiver draining without a window; only a
                            request leg's arrival sets it, and the
                            backend clears it as it sleeps *)
  mutable leg_pending : bool; (* a doorbell leg is in flight *)
  mutable handoff_pending : bool; (* a poll handoff is scheduled *)
  (* Cold-path tracking is per receiving endpoint: a leg towards a
     worker that has been idle pays the cold surcharge (idle wakeup,
     scheduler, cache refill), while a recently-active receiver is
     hot.  This is what makes back-to-back no-ops cost ~35us while an
     isolated input event costs hundreds (§6.1.1 vs §6.1.5). *)
  mutable last_wake : float;
  mutable legs_sent : int; (* doorbell legs *)
  mutable suppressed : int; (* signals to a receiver inside its window *)
  mutable handoffs : int;
  (* Tracing: the leg and the handoff in flight, each with its stage
     span and the slot it was raised for (-1 once that descriptor was
     picked up without it), and per slot the instant its descriptor
     last became ready for the receiver: marked ready, reached by its
     own signal, or picked up ahead of it.  A descriptor picked up
     later than that (its signal coalesced onto another's, or the
     receiver busy) records the wait as a ring stage span, so the
     stage spans still tile its op. *)
  mutable leg_sp : Obs.Trace.span;
  mutable leg_slot : int;
  mutable handoff_sp : Obs.Trace.span;
  mutable handoff_slot : int;
  ready : float array;
}

(* The fixed half of a direction: what a landing signal does, the
   fault site that loses its legs, and the names it is traced under.
   Shared constants, so a channel stores one pointer per direction. *)
and spec = {
  arrive : t -> leg:bool -> unit; (* engine context, on landing *)
  drop_site : string;
  leg_span : string;
  handoff_span : string;
}

(* Channel ordinal for trace counter-series names ("ring3.occupancy").
   The backend passes a uid derived from the guest VM id and channel
   index, so the series names are deterministic per machine and two
   machines in different domains never share a counter.  Channels
   built without a uid (tests) draw from a domain-local fallback in a
   disjoint range. *)
let fallback_uids = Domain.DLS.new_key (fun () -> ref 1_000_000)

(* Private descriptor copies: one slot-sized buffer per side per
   domain, shared by every ring the domain runs.  Each copy is filled
   and consumed with no suspension point in between — encoded right
   before the slot write, decoded right after the slot read — so no
   process can observe another's bytes in it.  Fleet shards run rings
   on parallel domains, hence per domain rather than global. *)
let front_copy = Domain.DLS.new_key (fun () -> Bytes.create Proto.slot_size)
let back_copy = Domain.DLS.new_key (fun () -> Bytes.create Proto.slot_size)

(* Private copies of the control page's slot-state words, under the
   same contract: a scan reads all of them in one access and decides
   from its copy before anything can suspend. *)
let states_size = 4 * Config.ring_slots
let front_states = Domain.DLS.new_key (fun () -> Bytes.create states_size)
let back_states = Domain.DLS.new_key (fun () -> Bytes.create states_size)

(* The [encode] of a ready-encoded slot [src]. *)
let copy_slot src copy = Bytes.blit src 0 copy 0 Proto.slot_size

(* ---- ring layout ---- *)

let st_free = 0
let st_req_ready = 1
let st_in_service = 2
let st_resp_ready = 3
let st_delivered = 4
let state_off slot = 4 * slot
let notify_off = 512
let slot_off slot = Memory.Addr.page_size + (slot * Proto.slot_size)

let read_states (view : Hypervisor.Shared_page.view) states =
  view.Hypervisor.Shared_page.read_into ~offset:0 ~len:states_size states

let state_of states slot =
  Int32.to_int (Bytes.get_int32_le states (state_off slot)) land 0xffffffff

(* ---- the two signalling directions ---- *)

(* A request signal landed: a leg wakes the backend into draining. *)
let wake_backend t ~leg =
  if leg then t.req.awake <- true;
  Sim.Mailbox.send t.req_rx ()

(* A response signal landed: deliver every response published since it
   was raised (engine context: page reads and mailbox sends only, no
   waits; a send only schedules its receiver, so the state copy stays
   current through the loop). *)
let deliver_responses t ~leg:_ =
  if not t.dead then begin
    let states = Domain.DLS.get front_states in
    read_states t.front_view states;
    for slot = 0 to Config.ring_slots - 1 do
      if state_of states slot = st_resp_ready then begin
        t.front_view.Hypervisor.Shared_page.write_u32 ~offset:(state_off slot)
          st_delivered;
        Sim.Mailbox.send t.resp_box.(slot) ()
      end
    done
  end

let req_spec =
  {
    arrive = wake_backend;
    drop_site = site_drop_req;
    leg_span = "doorbell:req";
    handoff_span = "doorbell:req_poll";
  }

let resp_spec =
  {
    arrive = deliver_responses;
    drop_site = site_drop_resp;
    leg_span = "doorbell:resp";
    handoff_span = "doorbell:resp_poll";
  }

let new_dir spec =
  {
    spec;
    watchers = 0;
    awake = false;
    leg_pending = false;
    handoff_pending = false;
    last_wake = neg_infinity;
    legs_sent = 0;
    suppressed = 0;
    handoffs = 0;
    leg_sp = Obs.Trace.no_span;
    leg_slot = -1;
    handoff_sp = Obs.Trace.no_span;
    handoff_slot = -1;
    ready = Array.make Config.ring_slots 0.;
  }

let create ?uid engine ~config ~phys ~guest_vm ~driver_vm =
  let uid =
    match uid with
    | Some u -> u
    | None ->
        let r = Domain.DLS.get fallback_uids in
        incr r;
        !r
  in
  let slots = Config.ring_slots in
  let slot_bytes = slots * Proto.slot_size in
  let pages =
    1 + ((slot_bytes + Memory.Addr.page_size - 1) / Memory.Addr.page_size)
  in
  let region = Hypervisor.Shared_page.allocate ~pages phys in
  let (_ : int) =
    Hypervisor.Shared_page.map_into region guest_vm ~perms:Memory.Perm.rw
  in
  let (_ : int) =
    Hypervisor.Shared_page.map_into region driver_vm ~perms:Memory.Perm.rw
  in
  let free_slots = Sim.Mailbox.create engine in
  for i = 0 to slots - 1 do
    Sim.Mailbox.send free_slots i
  done;
  {
    engine;
    config;
    front_view = Hypervisor.Shared_page.view_of region guest_vm;
    back_view = Hypervisor.Shared_page.view_of region driver_vm;
    req_rx = Sim.Mailbox.create engine;
    resp_box = Array.init slots (fun _ -> Sim.Mailbox.create engine);
    notify_rx = Sim.Mailbox.create engine;
    free_slots;
    held = 0;
    next_seq = 0;
    service_seq = Array.make slots 0;
    service_active = Array.make slots false;
    req = new_dir req_spec;
    resp = new_dir resp_spec;
    signalling = config.Config.signalling;
    poll_budget_left = config.Config.signalling.budget_us;
    scan_cursor = 0;
    legs = 0;
    cold_legs = 0;
    rpcs = 0;
    in_flight = 0;
    max_in_flight = 0;
    in_service = 0;
    notifications = 0;
    pending_notify = false;
    notify_seen = 0;
    stale_responses = 0;
    protocol_violations = 0;
    dropped_legs = 0;
    poll_windows = 0;
    dead = false;
    retired = false;
    timeouts = 0;
    retries = 0;
    tracer = config.Config.tracer;
    chan_uid = uid;
    service_trace = Array.make slots 0;
  }

let is_dead t = t.dead

let signalling t = t.signalling

(* Live switch (an operator flipping a guest from interrupts to hybrid
   mid-stream).  Legs already in flight keep their latency and a
   backend mid-window finishes that window; the new budget applies at
   once, so a window of 0 opens no new one. *)
let set_signalling t s =
  t.signalling <- s;
  t.poll_budget_left <- s.Config.budget_us

(** No operation in flight on either side of the ring. *)
let quiescent t = t.in_flight = 0 && t.in_service = 0

(** Dispatch weight for {!Chan_pool}: outstanding frontend operations,
    with a whole ring's worth of penalty while the backend worker is
    inside the driver (it may be blocked indefinitely in a read or
    poll, so new work should prefer a channel whose worker is free). *)
let load t = t.in_flight + (Config.ring_slots * Int.min t.in_service 1)

(** Declare the channel dead (driver-VM crash).  With [poison] (the
    default) every blocked party — each slot's response waiter, the
    backend worker waiting for a doorbell, the notification dispatcher
    — is woken exactly once so it can observe [dead] and bail out.
    Slot holders release their ring slots as they fail, which wakes
    any publisher blocked waiting for a free slot in turn.
    [poison:false] models a silent crash: nobody is woken and
    detection is left to RPC deadlines or the frontend watchdog. *)
let kill ?(poison = true) t =
  if not t.dead then begin
    t.dead <- true;
    if poison then begin
      Array.iter (fun box -> Sim.Mailbox.send box ()) t.resp_box;
      Sim.Mailbox.send t.req_rx ();
      Sim.Mailbox.send t.notify_rx ()
    end
  end

exception Retired

(** Retire the channel (planned handoff): poison-kill it, but mark the
    death as {e planned} so a sender still inside {!rpc} raises
    {!Retired} — "the transport moved, replay me there" — rather than
    EIO, which would fault the whole session. *)
let retire t =
  if not t.dead then begin
    t.retired <- true;
    kill t
  end

(* One signalling leg in direction [d]: transfer latency, plus the
   cold surcharge when the receiver has been idle.  [k] runs in engine
   context on arrival. *)
let leg t d k =
  let now = Sim.Engine.now t.engine in
  let cold = now -. d.last_wake > Config.cold_threshold_us in
  d.last_wake <- now;
  t.legs <- t.legs + 1;
  if cold then t.cold_legs <- t.cold_legs + 1;
  let s = t.signalling in
  let delay = s.Config.leg_us +. (if cold then s.Config.cold_extra_us else 0.) in
  Sim.Engine.at t.engine ~delay k

let marshal () = Sim.Engine.wait Config.marshal_us

let fail_dead t =
  if t.retired then raise Retired
  else Oskit.Errno.fail Oskit.Errno.EIO "channel dead: driver VM down"

(* Tracing helpers.  Every one is a no-op behind a single boolean when
   the sink is disabled; none of them waits, so simulated time is
   untouched.  Spans attach to the operation's trace id (0 = untraced,
   e.g. the watchdog heartbeat). *)
let traced t = Obs.Trace.enabled t.tracer

let occupancy_sample t =
  if traced t then
    Obs.Trace.counter t.tracer ~lane:Obs.Trace.Ring
      ~name:(Printf.sprintf "ring%d.occupancy" t.chan_uid)
      (float_of_int t.held)

(* [slot]'s descriptor is ready for [d]'s receiver from now on. *)
let mark_ready t d slot =
  if traced t && slot >= 0 then d.ready.(slot) <- Sim.Engine.now t.engine

(* [slot]'s descriptor is picked up now: claimed by the backend's scan,
   or its waiter woken (tracing only).  A signal it raised that is
   still in flight has delivered nothing to it, so its stage span ends
   here and it lands for nobody. *)
let picked_up t d slot =
  if d.leg_pending && d.leg_slot = slot then begin
    Obs.Trace.span_end t.tracer d.leg_sp;
    d.leg_slot <- -1;
    mark_ready t d slot
  end;
  if d.handoff_pending && d.handoff_slot = slot then begin
    Obs.Trace.span_end t.tracer d.handoff_sp;
    d.handoff_slot <- -1;
    mark_ready t d slot
  end

(* Record the wait of [slot]'s descriptor on the ring, from its ready
   instant to its pickup at [stop], when non-zero. *)
let ring_wait t d ~slot ~trace ~name ~stop =
  let ready = d.ready.(slot) in
  if stop > ready then
    Obs.Trace.add_complete t.tracer ~trace ~lane:Obs.Trace.Ring ~cat:"stage" ~name
      ~start:ready ~stop

(* The one signalling decision, for requests and responses alike.  A
   receiver inside its poll window gets a handoff: no interrupt and no
   cold surcharge (a poll-watcher is awake by definition), and one
   scheduled handoff covers everything published before it lands.  A
   receiver that is awake, or already has a leg coming, needs nothing:
   its next head re-scan, or that leg, picks the work up.  Anyone else
   gets a leg, which the drop fault can lose (the descriptor stays
   marked, so a later leg or the deadline recovers it).  Only a leg's
   arrival clears [leg_pending].  [slot] is the descriptor signalled
   for. *)
let signal t d ~trace ~slot =
  if d.watchers > 0 then begin
    d.suppressed <- d.suppressed + 1;
    if not d.handoff_pending then begin
      d.handoff_pending <- true;
      d.handoff_slot <- slot;
      d.handoffs <- d.handoffs + 1;
      d.handoff_sp <-
        Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Transport
          ~cat:"stage" ~name:d.spec.handoff_span ();
      d.last_wake <- Sim.Engine.now t.engine;
      Sim.Engine.at t.engine ~delay:t.signalling.Config.handoff_us (fun () ->
          d.handoff_pending <- false;
          Obs.Trace.span_end t.tracer d.handoff_sp;
          mark_ready t d d.handoff_slot;
          d.spec.arrive t ~leg:false)
    end
  end
  else if not (d.awake || d.leg_pending) then
    if Config.fires t.config d.spec.drop_site then t.dropped_legs <- t.dropped_legs + 1
    else begin
      d.leg_pending <- true;
      d.leg_slot <- slot;
      d.legs_sent <- d.legs_sent + 1;
      d.leg_sp <-
        Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Transport
          ~cat:"stage" ~name:d.spec.leg_span ();
      leg t d (fun () ->
          d.leg_pending <- false;
          Obs.Trace.span_end t.tracer d.leg_sp;
          mark_ready t d d.leg_slot;
          d.spec.arrive t ~leg:true)
    end

(* Request doorbell.  The delay fault stalls the publish path before
   the signalling decision. *)
let ring_req_doorbell t ~trace ~slot =
  if Config.fires t.config site_delay_req then
    Sim.Engine.wait Config.fault_delay_us;
  signal t t.req ~trace ~slot

(* Publish one request descriptor: marshal, encode it into the
   domain's private copy, stamp the attempt's sequence number into
   that copy, write it to the slot in one access, mark it ready, ring.
   Encoding happens at the write, after the marshal wait, so every
   publish (a republish too) writes freshly encoded bytes.  Corruption
   garbles the opcode byte in the shared slot (the backend must
   reject, not crash); the sequence number is already in the slot, so
   even a corrupt descriptor's rejection pairs with its attempt. *)
let publish t ~slot ~seq ~trace encode =
  let sp =
    Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Frontend ~cat:"stage"
      ~name:"front:publish" ()
  in
  marshal ();
  let view = t.front_view and off = slot_off slot in
  let copy = Domain.DLS.get front_copy in
  encode copy;
  Proto.set_seq copy seq;
  view.Hypervisor.Shared_page.write ~offset:off copy;
  if Config.fires t.config site_corrupt_req then begin
    (* the opcode is the low byte of the little-endian first word *)
    let word = view.Hypervisor.Shared_page.read_u32 ~offset:off in
    view.Hypervisor.Shared_page.write_u32 ~offset:off (word lxor 0xff)
  end;
  view.Hypervisor.Shared_page.write_u32 ~offset:(state_off slot) st_req_ready;
  mark_ready t t.req slot;
  ring_req_doorbell t ~trace ~slot;
  Obs.Trace.span_end t.tracer sp

let slot_span_name = Printf.sprintf "slot%d"

let fresh_seq t =
  t.next_seq <- t.next_seq + 1;
  t.next_seq

(** Frontend: one request/response exchange over a ring slot.  Blocks
    while the ring is full; up to [Config.ring_slots] callers may be
    inside concurrently.  [encode] fills the private copy that each
    publish writes to the slot; [decode] reads the private copy the
    answer was read into, and its result is the exchange's.

    With a deadline ([timeout_us] override, else [Config.rpc_timeout_us];
    0 = wait forever) an unanswered request is {e resent} up to
    [Config.rpc_retries] times — with a fresh sequence number — before
    the exchange fails with ETIMEDOUT.  Retries give at-least-once
    semantics: a request whose response (rather than the request
    itself) was lost executes twice, so callers must only retry
    idempotent operations — which is why deadlines are opt-in.  A
    response carrying a stale sequence number (the late answer of a
    timed-out attempt) is discarded and the live attempt republished.
    A channel killed mid-exchange fails with EIO instead: the
    transport itself is gone. *)
let call ?timeout_us t ~trace ~encode ~decode =
  if t.dead then fail_dead t;
  t.rpcs <- t.rpcs + 1;
  t.in_flight <- t.in_flight + 1;
  if t.in_flight > t.max_in_flight then t.max_in_flight <- t.in_flight;
  Fun.protect
    ~finally:(fun () -> t.in_flight <- t.in_flight - 1)
    (fun () ->
      let wait_sp =
        Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Frontend
          ~cat:"stage" ~name:"front:slot_wait" ()
      in
      let slot = Sim.Mailbox.recv t.free_slots in
      if t.dead then begin
        Sim.Mailbox.send t.free_slots slot;
        Obs.Trace.span_end ~status:"error:dead" t.tracer wait_sp;
        fail_dead t
      end;
      t.held <- t.held + 1;
      Obs.Trace.span_arg wait_sp "slot" (float_of_int slot);
      Obs.Trace.span_end t.tracer wait_sp;
      occupancy_sample t;
      let ring_sp =
        Obs.Trace.span_begin_by t.tracer ~trace ~lane:Obs.Trace.Ring ~cat:"ring"
          ~name:slot_span_name slot
      in
      let box = t.resp_box.(slot) in
      (* drop stale wakeups a timed-out previous occupant left behind:
         correctness comes from sequence pairing, but a buffered token
         would cost a pointless spurious wake *)
      Sim.Mailbox.clear box;
      Fun.protect
        ~finally:(fun () ->
          if not t.dead then
            t.front_view.Hypervisor.Shared_page.write_u32
              ~offset:(state_off slot) st_free;
          t.held <- t.held - 1;
          Obs.Trace.span_end t.tracer ring_sp;
          occupancy_sample t;
          Sim.Mailbox.send t.free_slots slot)
        (fun () ->
          let deadline =
            match timeout_us with
            | Some d -> d
            | None -> t.config.Config.rpc_timeout_us
          in
          let rec attempt tries_left =
            let seq = fresh_seq t in
            publish t ~slot ~seq ~trace encode;
            if t.dead then fail_dead t;
            await tries_left seq
          and await tries_left seq =
            let block () =
              if deadline > 0. then
                Sim.Mailbox.recv_timeout box ~timeout:deadline
              else Some (Sim.Mailbox.recv box)
            in
            let window = t.signalling.Config.window_us in
            let got =
              if window > 0. && not t.dead then begin
                (* poll-watch the response for one window before
                   sleeping behind the response doorbell; while we are
                   a watcher, [respond] hands completions over instead
                   of raising a leg *)
                let window =
                  if deadline > 0. && deadline < window then deadline else window
                in
                t.resp.watchers <- t.resp.watchers + 1;
                let watched = Sim.Mailbox.recv_timeout box ~timeout:window in
                t.resp.watchers <- t.resp.watchers - 1;
                match watched with
                | Some () -> watched
                | None ->
                    (* window dry: sleep (the full deadline still
                       applies — a dry watch window is polling time,
                       not RPC time) *)
                    if t.dead then Some () else block ()
              end
              else block ()
            in
            if t.dead then fail_dead t;
            match got with
            | Some () ->
                let wake = Sim.Engine.now t.engine in
                if traced t then begin
                  picked_up t t.resp slot;
                  ring_wait t t.resp ~slot ~trace ~name:"ring:resp_wait" ~stop:wake
                end;
                marshal ();
                let copy = Domain.DLS.get front_copy in
                t.front_view.Hypervisor.Shared_page.read_into
                  ~offset:(slot_off slot) ~len:Proto.slot_size copy;
                if Proto.get_seq copy = seq then begin
                  if traced t then
                    Obs.Trace.add_complete t.tracer ~trace
                      ~lane:Obs.Trace.Frontend ~cat:"stage"
                      ~name:"front:complete" ~start:wake
                      ~stop:(Sim.Engine.now t.engine);
                  decode copy
                end
                else begin
                  (* a late answer to a timed-out earlier attempt: it
                     clobbered our live request, so discard it and
                     republish the same attempt *)
                  t.stale_responses <- t.stale_responses + 1;
                  publish t ~slot ~seq ~trace encode;
                  if t.dead then fail_dead t;
                  await tries_left seq
                end
            | None ->
                t.timeouts <- t.timeouts + 1;
                if tries_left > 0 then begin
                  t.retries <- t.retries + 1;
                  attempt (tries_left - 1)
                end
                else
                  Oskit.Errno.fail Oskit.Errno.ETIMEDOUT
                    "rpc deadline exceeded after retries"
          in
          attempt (Int.max 0 t.config.Config.rpc_retries)))

(** {!call} with a ready-encoded slot: [req] (a whole slot) is copied
    in at each publish and the answer returned as a fresh copy. *)
let rpc ?timeout_us t req =
  call ?timeout_us t ~trace:(Proto.get_trace req) ~encode:(copy_slot req)
    ~decode:Bytes.copy

(** Hostile-frontend injection (adversarial tests): write [bytes]
    straight into ring slot [slot] and mark it request-ready, bypassing
    the RPC state machine entirely — exactly what a compromised guest
    kernel with the shared region mapped writable can do.  No sequence
    pairing, no slot accounting; whatever response the backend
    publishes into the slot is simply left unread (and a later
    injection into the same slot clobbers it, as on real hardware). *)
let inject_raw t ~slot (bytes : bytes) =
  if slot < 0 || slot >= Config.ring_slots then
    invalid_arg "Channel.inject_raw";
  if not t.dead then begin
    let wire = Domain.DLS.get front_copy in
    Bytes.fill wire 0 Proto.slot_size '\000';
    Bytes.blit bytes 0 wire 0 (min (Bytes.length bytes) Proto.slot_size);
    t.front_view.Hypervisor.Shared_page.write ~offset:(slot_off slot) wire;
    t.front_view.Hypervisor.Shared_page.write_u32 ~offset:(state_off slot)
      st_req_ready;
    ring_req_doorbell t ~trace:0 ~slot
  end

(** Backend: block until a descriptor is ready and claim it; [None]
    once the channel is dead (the worker should exit).  One wakeup
    drains many: after serving, the worker's next call re-scans the
    ring head and picks up everything published meanwhile without any
    further interrupt.  Each scan reads the slot-state words once, into
    the domain's private copy, and the descriptor is read once, into
    the domain's private back copy, which is returned: the caller
    decodes it before it next suspends. *)
let next_request t : (int * bytes) option =
  if t.dead then None
  else begin
    let scan () =
      let states = Domain.DLS.get back_states in
      read_states t.back_view states;
      let rec go i =
        if i >= Config.ring_slots then None
        else
          let slot = (t.scan_cursor + i) mod Config.ring_slots in
          if state_of states slot = st_req_ready then Some slot else go (i + 1)
      in
      go 0
    in
    let start = ref 0. in
    let rec next () =
      (* the drain span measures the scan-and-claim work itself, so its
         start is stamped at the point the scan actually begins — not
         at function entry, and never inside a poll window's
         wait, which would inflate drain spans under load *)
      start := Sim.Engine.now t.engine;
      match scan () with
      | Some slot ->
          t.scan_cursor <- (slot + 1) mod Config.ring_slots;
          t.back_view.Hypervisor.Shared_page.write_u32 ~offset:(state_off slot)
            st_in_service;
          t.service_active.(slot) <- true;
          t.in_service <- t.in_service + 1;
          if traced t then picked_up t t.req slot;
          marshal ();
          let bytes = Domain.DLS.get back_copy in
          t.back_view.Hypervisor.Shared_page.read_into ~offset:(slot_off slot)
            ~len:Proto.slot_size bytes;
          t.service_seq.(slot) <- Proto.get_seq bytes;
          let trace = Proto.get_trace bytes in
          t.service_trace.(slot) <- trace;
          (* the trace id is only known once the descriptor is read,
             so the spans up to here are recorded after the fact: the
             descriptor's wait for this scan, then the drain *)
          if traced t then begin
            ring_wait t t.req ~slot ~trace ~name:"ring:req_wait" ~stop:!start;
            Obs.Trace.add_complete t.tracer ~trace ~lane:Obs.Trace.Backend
              ~cat:"stage" ~name:"back:drain" ~start:!start
              ~stop:(Sim.Engine.now t.engine)
          end;
          Some (slot, bytes)
      | None ->
          let window = t.signalling.Config.window_us in
          if window > 0. && t.poll_budget_left > 0. then begin
            (* the ring just went dry, but more work may be a
               microsecond away.  Stay inside a bounded poll window —
               publishes hand over instead of raising a leg — and only
               sleep once a whole window passes with nothing arriving
               (or the episode's dry-poll budget runs out). *)
            let window =
              if t.poll_budget_left < window then t.poll_budget_left else window
            in
            t.req.watchers <- t.req.watchers + 1;
            t.poll_windows <- t.poll_windows + 1;
            let t0 = Sim.Engine.now t.engine in
            let got = Sim.Mailbox.recv_timeout t.req_rx ~timeout:window in
            t.req.watchers <- t.req.watchers - 1;
            t.poll_budget_left <-
              t.poll_budget_left -. (Sim.Engine.now t.engine -. t0);
            match got with
            | Some () -> if t.dead then None else next ()
            | None -> if t.dead then None else sleep ()
          end
          else sleep ()
    and sleep () =
      (* ring drained (and any poll window dry): go back to sleep.  No
         wakeup can be lost — there is no suspension point between the
         empty scan, clearing [awake] and blocking, so any publish
         after this point sees a sleeping backend and sends a doorbell;
         a handoff scheduled during the final window is still in
         flight and lands in the mailbox. *)
      t.req.awake <- false;
      let () = Sim.Mailbox.recv t.req_rx in
      (* a wakeup starts a fresh poll episode *)
      t.poll_budget_left <- t.signalling.Config.budget_us;
      if t.dead then None else next ()
    in
    next ()
  end

(** Backend: complete the descriptor claimed from slot [slot].
    [encode] writes the response into the private back copy (after the
    marshal wait, right before the slot write), the sequence number and
    trace id the descriptor was drained with are stamped into that
    copy, the copy goes to the slot in one access, and the frontend is
    signalled ([signal]: a leg already in flight covers this response
    too).  Dropped silently on a dead channel (a crashed driver VM
    answers nobody); the response-drop fault loses the leg (the
    descriptor stays ready and would ride a later response's leg — or
    the frontend deadline recovers). *)
let respond_with t ~slot encode =
  if not t.dead then begin
    if slot < 0 || slot >= Config.ring_slots then
      invalid_arg "Channel.respond";
    (* A respond must pair with an outstanding claim on the slot.  The
       authority is the backend-private [service_active] flag — not the
       control-page state word, which the guest has mapped writable
       (and which legitimately reads [st_req_ready] again when a
       timed-out frontend republished its resend into the slot).  A
       respond with no outstanding claim — a double-complete or a slot
       never claimed — is a protocol violation: it used to be masked by
       clamping the in-service count at zero; now it is counted and
       surfaced as EIO so the caller can score the guest instead of
       silently corrupting ring accounting. *)
    if not t.service_active.(slot) then begin
      t.protocol_violations <- t.protocol_violations + 1;
      Oskit.Errno.fail Oskit.Errno.EIO "respond: slot not in service"
    end;
    t.service_active.(slot) <- false;
    let trace = t.service_trace.(slot) in
    let sp =
      Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Backend ~cat:"stage"
        ~name:"back:respond" ()
    in
    marshal ();
    let view = t.back_view and off = slot_off slot in
    let copy = Domain.DLS.get back_copy in
    encode copy;
    Proto.set_seq copy t.service_seq.(slot);
    Proto.set_trace copy trace;
    view.Hypervisor.Shared_page.write ~offset:off copy;
    view.Hypervisor.Shared_page.write_u32 ~offset:(state_off slot) st_resp_ready;
    mark_ready t t.resp slot;
    t.in_service <- t.in_service - 1;
    Obs.Trace.span_end t.tracer sp;
    signal t t.resp ~trace ~slot
  end

(** {!respond_with} a ready-encoded slot. *)
let respond t ~slot resp = respond_with t ~slot (copy_slot resp)

(** Backend: asynchronous notification towards the frontend (§5.1's
    "message to the frontend, e.g., when the keyboard is pressed").
    Runs in callback context (no waits): marshal cost is folded into
    the leg. *)
let notify_mask = 0xffff_ffff

let notify t =
  if not t.dead then begin
    t.notifications <- t.notifications + 1;
    let counter =
      t.back_view.Hypervisor.Shared_page.read_u32 ~offset:notify_off
    in
    (* the notify word is a u32 on the wire: wrap explicitly instead of
       letting the OCaml int grow past what the shared page models *)
    t.back_view.Hypervisor.Shared_page.write_u32 ~offset:notify_off
      ((counter + 1) land notify_mask);
    (* Signals collapse: while a notification interrupt is pending, new
       events only bump the counter (like SIGIO, §2.1). *)
    if not t.pending_notify then begin
      t.pending_notify <- true;
      leg t t.resp (fun () -> Sim.Mailbox.send t.notify_rx ())
    end
  end

(** Test hook: preset the raw notification counter (e.g. just below the
    u32 boundary) as if that many notifications had already been
    observed, so wrap behaviour can be exercised directly. *)
let preset_notify_counter t v =
  let v = v land notify_mask in
  t.back_view.Hypervisor.Shared_page.write_u32 ~offset:notify_off v;
  t.notify_seen <- v

(** Frontend: block for the next notification; [None] once the channel
    is dead (the dispatcher should exit).  Returns the number of
    notifications raised since the last observation — the wrap-safe
    delta of the shared u32 counter, not its raw value. *)
let next_notification t =
  if t.dead then None
  else
    let () = Sim.Mailbox.recv t.notify_rx in
    if t.dead then None
    else begin
      t.pending_notify <- false;
      let counter =
        t.front_view.Hypervisor.Shared_page.read_u32 ~offset:notify_off
      in
      let delta = (counter - t.notify_seen) land notify_mask in
      t.notify_seen <- counter;
      Some delta
    end

type stats = {
  legs : int;
  cold_legs : int;
  rpcs : int;
  max_in_flight : int;
  notifications : int;
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

let stats (t : t) : stats =
  {
    legs = t.legs;
    cold_legs = t.cold_legs;
    rpcs = t.rpcs;
    max_in_flight = t.max_in_flight;
    notifications = t.notifications;
    timeouts = t.timeouts;
    retries = t.retries;
    stale_responses = t.stale_responses;
    protocol_violations = t.protocol_violations;
    req_poll_pickups = t.req.handoffs;
    resp_poll_deliveries = t.resp.handoffs;
    req_legs = t.req.legs_sent;
    resp_legs = t.resp.legs_sent;
    req_suppressed = t.req.suppressed;
    resp_suppressed = t.resp.suppressed;
    dropped_legs = t.dropped_legs;
    poll_windows = t.poll_windows;
  }
