(* The observability layer: span tracing + metrics on simulated time
   (zero-cost when off, zero perturbation when on), the Chrome
   trace-event exporter, and the frontend poll/fasync forwarding
   regressions that tracing made visible. *)

open Oskit
open Fixtures
module M = Paradice.Machine
module Config = Paradice.Config
module Trace = Obs.Trace
module Metrics = Obs.Metrics

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- the sinks themselves (no machine) ---- *)

let test_disabled_sink_is_inert () =
  let t = Trace.disabled in
  Alcotest.(check bool) "disabled sink reports off" false (Trace.enabled t);
  Alcotest.(check int) "mint_id is 0 when off" 0 (Trace.mint_id t);
  let sp = Trace.span_begin t ~trace:7 ~lane:Trace.Frontend ~cat:"op" ~name:"x" () in
  Trace.span_arg sp "k" 1.;
  Trace.span_end t sp;
  Trace.counter t ~lane:Trace.Ring ~name:"c" 1.;
  Trace.add_complete t ~trace:7 ~lane:Trace.Backend ~cat:"stage" ~name:"y"
    ~start:0. ();
  Alcotest.(check int) "nothing open" 0 (Trace.open_count t);
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.completed t));
  Alcotest.(check int) "abort closes nothing" 0 (Trace.abort_open t ~reason:"r");
  (* an untraced operation (id 0) on an enabled sink records nothing
     either: the watchdog heartbeat must stay invisible *)
  let live = Trace.create () in
  let dsp = Trace.span_begin live ~trace:0 ~lane:Trace.Frontend ~cat:"op" ~name:"hb" () in
  Trace.span_end live dsp;
  Trace.add_complete live ~trace:0 ~lane:Trace.Backend ~cat:"stage" ~name:"hb"
    ~start:0. ();
  Alcotest.(check int) "untraced ops record nothing" 0
    (List.length (Trace.completed live))

let test_span_lifecycle_and_metrics () =
  let now = ref 100. in
  let t = Trace.create () in
  Trace.attach_clock t (fun () -> !now);
  let trace = Trace.mint_id t in
  Alcotest.(check bool) "trace ids start positive" true (trace >= 1);
  let sp = Trace.span_begin t ~trace ~lane:Trace.Frontend ~cat:"op" ~name:"ioctl" () in
  Alcotest.(check int) "one open span" 1 (Trace.open_count t);
  now := 135.;
  Trace.span_arg sp "slot" 3.;
  Trace.span_end t sp;
  Trace.span_end t sp (* idempotent *);
  Alcotest.(check int) "closed" 0 (Trace.open_count t);
  (match Trace.completed t with
  | [ c ] ->
      Alcotest.(check (float 1e-9)) "span duration" 35. c.Trace.c_dur;
      Alcotest.(check (float 1e-9)) "span start" 100. c.Trace.c_start;
      Alcotest.(check string) "default status" "ok" c.Trace.c_status;
      Alcotest.(check int) "one arg" 1 (List.length c.Trace.c_args)
  | l -> Alcotest.failf "expected 1 completed span, got %d" (List.length l));
  (match Metrics.find_histogram (Trace.metrics t) "op.ioctl" with
  | Some h ->
      Alcotest.(check int) "histogram fed once" 1 (Sim.Stats.count h);
      Alcotest.(check (float 1e-9)) "histogram sum = duration" 35. (Sim.Stats.sum h)
  | None -> Alcotest.fail "op.ioctl histogram missing");
  (* add_complete covers stages whose id is only known at the end *)
  now := 200.;
  Trace.add_complete t ~trace ~lane:Trace.Backend ~cat:"stage" ~name:"drain"
    ~start:190. ();
  (match List.rev (Trace.completed t) with
  | c :: _ ->
      Alcotest.(check string) "after-the-fact span recorded" "drain" c.Trace.c_name;
      Alcotest.(check (float 1e-9)) "its duration" 10. c.Trace.c_dur
  | [] -> Alcotest.fail "add_complete recorded nothing");
  Trace.reset t;
  Alcotest.(check int) "reset drops events" 0 (List.length (Trace.completed t));
  Alcotest.(check bool) "ids keep counting across reset" true
    (Trace.mint_id t > trace)

let test_abort_open_closes_all_with_error () =
  let now = ref 0. in
  let t = Trace.create () in
  Trace.attach_clock t (fun () -> !now);
  let spans =
    List.init 3 (fun i ->
        Trace.span_begin t ~trace:(i + 1) ~lane:Trace.Backend ~cat:"stage"
          ~name:"s" ())
  in
  now := 10.;
  Alcotest.(check int) "all three closed" 3 (Trace.abort_open t ~reason:"crash");
  Alcotest.(check int) "none left open" 0 (Trace.open_count t);
  List.iter
    (fun c ->
      Alcotest.(check string) "error status carries the reason" "error:crash"
        c.Trace.c_status)
    (Trace.completed t);
  (* a finaliser closing an already-aborted span must be a no-op *)
  List.iter (fun sp -> Trace.span_end t sp) spans;
  Alcotest.(check int) "no double record" 3 (List.length (Trace.completed t))

let test_chrome_json_export () =
  let now = ref 0. in
  let t = Trace.create () in
  Trace.attach_clock t (fun () -> !now);
  let trace = Trace.mint_id t in
  let sp =
    Trace.span_begin t ~trace ~lane:Trace.Frontend ~cat:"op" ~name:"read \"q\"" ()
  in
  now := 2.5;
  Trace.span_end t sp;
  Trace.counter t ~lane:Trace.Ring ~name:"ring1.occupancy" 4.;
  let js = Trace.to_chrome_json t in
  Alcotest.(check bool) "JSON array open" true (String.length js > 2 && js.[0] = '[');
  Alcotest.(check bool) "JSON array close" true
    (String.ends_with ~suffix:"]\n" js);
  Alcotest.(check bool) "lane metadata events" true (contains ~sub:"\"ph\":\"M\"" js);
  Alcotest.(check bool) "complete span events" true (contains ~sub:"\"ph\":\"X\"" js);
  Alcotest.(check bool) "counter events" true (contains ~sub:"\"ph\":\"C\"" js);
  Alcotest.(check bool) "duration in microseconds" true
    (contains ~sub:"\"dur\":2.500" js);
  Alcotest.(check bool) "span names are JSON-escaped" true
    (contains ~sub:"read \\\"q\\\"" js);
  (* crude well-formedness: balanced braces outside strings would need a
     parser; at least every event line is one object *)
  let opens = String.fold_left (fun n c -> if c = '{' then n + 1 else n) 0 js in
  let closes = String.fold_left (fun n c -> if c = '}' then n + 1 else n) 0 js in
  Alcotest.(check int) "balanced braces" opens closes

(* ---- end-to-end: a traced machine ---- *)

let test_machine_trace_reconciles () =
  let tracer = Trace.create () in
  let config = { Config.default with Config.tracer } in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g1" () in
  run_in_process (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/null0") in
      for _ = 1 to 20 do
        Alcotest.(check int) "ioctl ok" 0 (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L))
      done;
      ok (Vfs.close k app fd));
  Alcotest.(check int) "no span left open after the run" 0 (Trace.open_count tracer);
  let ops = List.filter (fun c -> c.Trace.c_cat = "op") (Trace.completed tracer) in
  (* open + 20 ioctls + release each minted a trace *)
  Alcotest.(check bool) "every forwarded op got an op span" true
    (List.length ops >= 22);
  let r = Trace.reconcile tracer in
  Alcotest.(check bool) "all ops reconciled" true (r.Trace.r_ops >= 22);
  Alcotest.(check bool)
    (Printf.sprintf "stage spans tile each op within one tick (gap %.3f us)"
       r.Trace.r_max_gap_us)
    true
    (r.Trace.r_max_gap_us <= 1.);
  (match Metrics.find_histogram (Trace.metrics tracer) "op.ioctl" with
  | Some h -> Alcotest.(check int) "per-op-type histogram fed" 20 (Sim.Stats.count h)
  | None -> Alcotest.fail "op.ioctl histogram missing");
  (* the ring counters ran too *)
  Alcotest.(check bool) "ring occupancy sampled" true
    (Trace.counter_events tracer <> [])

let test_tracing_does_not_perturb_simulated_time () =
  let run tracer =
    let config = { Config.default with Config.tracer } in
    let m = M.create ~config () in
    let (_ : Defs.device) = M.attach_null m in
    let g = M.add_guest m ~name:"g1" () in
    run_in_process (M.engine m) (fun () ->
        let app = M.spawn_app m g.M.kernel ~name:"app" in
        let k = g.M.kernel in
        let fd = ok (Vfs.openf k app "/dev/null0") in
        for _ = 1 to 50 do
          ignore (ok (Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L))
        done;
        ok (Vfs.close k app fd));
    Sim.Engine.now (M.engine m)
  in
  let off = run Trace.disabled in
  let on_ = run (Trace.create ()) in
  Alcotest.(check (float 0.)) "off and on finish at the same instant" off on_

(* ---- poll forwarding (the interest-mask and backoff fixes) ---- *)

(* The frontend used to forward poll with a hardcoded
   want_in=true/want_out=true: a write-interest-only poll on an input
   device would complete as soon as an event arrived.  The real mask
   must cross the boundary. *)
let test_poll_forwards_interest_mask () =
  let m = M.create () in
  let mouse = M.attach_mouse m in
  let g = M.add_guest m ~name:"g1" () in
  let out_done = ref false and in_result = ref None in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"pollout" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/input/event0") in
      let (_ : Defs.poll_result) =
        ok (Vfs.poll k app fd ~want_in:false ~want_out:true ~timeout:1_000_000.)
      in
      out_done := true);
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"pollin" in
      let k = g.M.kernel in
      let fd = ok (Vfs.openf k app "/dev/input/event0") in
      in_result :=
        Some (ok (Vfs.poll k app fd ~want_in:true ~want_out:false ~timeout:1_000_000.)));
  Devices.Evdev.start_mouse mouse ~rate_hz:125. ~moves:3;
  Sim.Engine.run ~until:500_000. (M.engine m);
  (match !in_result with
  | Some r ->
      Alcotest.(check bool) "queued events make a read-interest poll ready" true
        r.Defs.pollin;
      Alcotest.(check bool) "no write readiness invented" false r.Defs.pollout
  | None -> Alcotest.fail "read-interest poll never returned");
  Alcotest.(check bool)
    "write-only interest on an input device must not complete on a read event"
    false !out_done

(* A failed Rfasync must leave the frontend's notification list
   untouched: when the backend rejects an unsubscribe, SIGIO keeps
   flowing (the registration is still live end to end) instead of
   silently stopping on the guest side only. *)
let test_fasync_failure_keeps_subscription_state () =
  let inj = Sim.Fault_inject.create ~seed:29L () in
  let config = { Config.default with Config.injector = Some inj } in
  let m = M.create ~config () in
  let mouse = M.attach_mouse m in
  let g = M.add_guest m ~name:"g1" () in
  let sigio_before = ref 0 and sigio_after = ref 0 and off_result = ref None in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"evtest" in
      let k = g.M.kernel in
      let sigio = ref 0 in
      Task.on_sigio app (fun () -> incr sigio);
      let fd = ok (Vfs.openf k app "/dev/input/event0") in
      ok (Vfs.fasync k app fd ~on:true);
      Sim.Engine.wait 100_000.;
      sigio_before := !sigio;
      (* the unsubscribe RPC frame is corrupted: the backend rejects it *)
      Sim.Fault_inject.arm inj ~key:Paradice.Channel.site_corrupt_req
        (Sim.Fault_inject.Nth 1);
      off_result := Some (Vfs.fasync k app fd ~on:false);
      Sim.Engine.wait 100_000.;
      sigio_after := !sigio);
  Devices.Evdev.start_mouse mouse ~rate_hz:125. ~moves:30;
  Sim.Engine.run (M.engine m);
  (match !off_result with
  | Some (Error Errno.EINVAL) -> ()
  | Some (Ok ()) -> Alcotest.fail "corrupted fasync-off reported success"
  | Some (Error e) -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)
  | None -> Alcotest.fail "fasync-off never returned");
  Alcotest.(check bool) "SIGIO flowed before the failed unsubscribe" true
    (!sigio_before > 0);
  Alcotest.(check bool)
    "a rejected unsubscribe must not silently stop SIGIO delivery" true
    (!sigio_after > !sigio_before)

let test_metrics_merge_namespaces () =
  (* cross-shard aggregation: prefixed merges keep per-shard
     namespaces apart, unprefixed merges pool exactly, and the source
     registries stay untouched *)
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:3 a "ops";
  Metrics.observe a "lat" 10.;
  Metrics.observe a "lat" 20.;
  Metrics.incr b "ops";
  Metrics.observe b "lat" 30.;
  let agg = Metrics.create () in
  Metrics.merge ~into:agg ~prefix:"shard0." a;
  Metrics.merge ~into:agg ~prefix:"shard1." b;
  Metrics.merge ~into:agg a;
  Metrics.merge ~into:agg b;
  Alcotest.(check int) "shard0 counter" 3 (Metrics.count agg "shard0.ops");
  Alcotest.(check int) "shard1 counter" 1 (Metrics.count agg "shard1.ops");
  Alcotest.(check int) "pooled counter" 4 (Metrics.count agg "ops");
  let pooled = Option.get (Metrics.find_histogram agg "lat") in
  Alcotest.(check int) "pooled samples" 3 (Sim.Stats.count pooled);
  Alcotest.(check (float 1e-9)) "pooled mean" 20. (Sim.Stats.mean pooled);
  Alcotest.(check (float 1e-9)) "pooled max" 30. (Sim.Stats.max_value pooled);
  let s0 = Option.get (Metrics.find_histogram agg "shard0.lat") in
  Alcotest.(check int) "shard0 samples" 2 (Sim.Stats.count s0);
  Alcotest.(check int) "source unchanged" 2
    (Sim.Stats.count (Option.get (Metrics.find_histogram a "lat")));
  Alcotest.(check int) "source counter unchanged" 3 (Metrics.count a "ops")

(* ---- the shared bench result writer ---- *)

module Outcome = Obs.Outcome

let sample =
  {
    Outcome.metrics =
      [
        Outcome.metric ~clock:Sim ~unit:"us" "nan" nan;
        Outcome.metric ~clock:Sim ~unit:"us" "inf" infinity;
        Outcome.metric ~clock:Wall ~unit:"us" "-inf" neg_infinity;
        Outcome.metric ~clock:Sim ~unit:"us" "finite" 35.6;
      ];
    gates =
      [
        Outcome.gate "holds" true "ok";
        Outcome.gate "broken" false "ratio 1.5";
        Outcome.gate "also holds" true "ok";
      ];
  }

let test_outcome_non_finite_is_null () =
  List.iter
    (fun x -> Alcotest.(check string) "non-finite" "null" (Outcome.json_float x))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check string) "finite round-trips" "35.6" (Outcome.json_float 35.6);
  let js = Outcome.to_json ~name:"t" ~scale:0.2 sample in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " is null") true
        (contains ~sub:(Printf.sprintf {|"key": "%s", "value": null|} key) js))
    [ "nan"; "inf"; "-inf" ];
  Alcotest.(check bool) "no OCaml float spellings" false
    (contains ~sub:"nan," js || contains ~sub:"inf," js)

let test_outcome_escapes_strings () =
  Alcotest.(check string) "quote, backslash, newline, control byte"
    {|a\"b\\c\nd\u0001e|}
    (Outcome.escape_json "a\"b\\c\nd\001e");
  let js =
    Outcome.to_json ~name:"x\"y" ~scale:1.
      { Outcome.metrics = []; gates = [ Outcome.gate "g" true "line\nbreak" ] }
  in
  Alcotest.(check bool) "name escaped" true (contains ~sub:{|"experiment": "x\"y"|} js);
  Alcotest.(check bool) "detail escaped" true (contains ~sub:{|"detail": "line\nbreak"|} js)

let test_outcome_reports_failed_gate () =
  (match Outcome.failed sample with
  | [ g ] -> Alcotest.(check string) "the failing gate" "broken" g.Outcome.name
  | gs -> Alcotest.failf "expected one failed gate, got %d" (List.length gs));
  let js = Outcome.to_json ~name:"t" ~scale:1. sample in
  Alcotest.(check bool) "result not passed" true (contains ~sub:{|"passed": false|} js);
  Alcotest.(check bool) "gate recorded as failed" true
    (contains ~sub:{|"name": "broken", "pass": false|} js)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "disabled sink is inert" `Quick test_disabled_sink_is_inert;
        Alcotest.test_case "span lifecycle + metrics" `Quick
          test_span_lifecycle_and_metrics;
        Alcotest.test_case "abort_open closes all with error" `Quick
          test_abort_open_closes_all_with_error;
        Alcotest.test_case "chrome trace JSON export" `Quick test_chrome_json_export;
        Alcotest.test_case "traced machine reconciles per stage" `Quick
          test_machine_trace_reconciles;
        Alcotest.test_case "tracing does not perturb simulated time" `Quick
          test_tracing_does_not_perturb_simulated_time;
        Alcotest.test_case "poll forwards the interest mask" `Quick
          test_poll_forwards_interest_mask;
        Alcotest.test_case "failed fasync leaves subscriptions intact" `Quick
          test_fasync_failure_keeps_subscription_state;
        Alcotest.test_case "metrics merge with shard prefixes" `Quick
          test_metrics_merge_namespaces;
        Alcotest.test_case "result writer: non-finite floats are null" `Quick
          test_outcome_non_finite_is_null;
        Alcotest.test_case "result writer: strings are escaped" `Quick
          test_outcome_escapes_strings;
        Alcotest.test_case "result writer: failed gate reported" `Quick
          test_outcome_reports_failed_gate;
      ] );
  ]
