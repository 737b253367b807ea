(* Hybrid (NAPI-style) notification, multi-op batched descriptors, and
   the ring-accounting bugfixes that rode along: double-complete is a
   counted protocol violation, the notify counter wraps at 2^32,
   back:drain spans start where the scan starts, and the forwarded-poll
   backoff adapts under hybrid notification. *)

module M = Paradice.Machine
module Ch = Paradice.Channel
module P = Paradice.Proto
module Config = Paradice.Config

let boot_null ?config () =
  let m = M.create ?config () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  (m, g)

let run_in eng f =
  let r = ref None in
  Sim.Engine.spawn eng (fun () -> r := Some (f ()));
  Sim.Engine.run eng;
  Option.get !r

let raw_channel ?config (m, g) =
  let config = Option.value config ~default:(M.config m) in
  Ch.create (M.engine m) ~config ~phys:m.M.phys ~guest_vm:g.M.vm
    ~driver_vm:m.M.driver_vm

let noop_req = P.encode_request ~grant_ref:0 ~pid:0 P.Rnoop

(* ---- satellite: respond on a slot not in service ---- *)

let test_double_respond_is_protocol_violation () =
  (* The backend completing the same slot twice used to be silently
     clamped by [max 0 (in_service - 1)]; it must now raise EIO and
     count as a protocol violation, leaving ring accounting intact. *)
  let m, g = boot_null () in
  let ch = raw_channel (m, g) in
  let eio_seen = ref 0 in
  Sim.Engine.spawn (M.engine m) ~name:"double-responder" (fun () ->
      let rec loop () =
        match Ch.next_request ch with
        | None -> ()
        | Some (slot, req) ->
            Ch.respond ch ~slot req;
            (match Ch.respond ch ~slot req with
            | () -> Alcotest.fail "double respond must raise"
            | exception Oskit.Errno.Unix_error (Oskit.Errno.EIO, _) ->
                incr eio_seen);
            loop ()
      in
      loop ());
  run_in (M.engine m) (fun () ->
      ignore (Ch.rpc ch noop_req);
      ignore (Ch.rpc ch noop_req));
  Alcotest.(check int) "both double-completes raised EIO" 2 !eio_seen;
  let s = Ch.stats ch in
  Alcotest.(check int) "violations counted" 2 s.Ch.protocol_violations;
  Alcotest.(check int) "both RPCs still completed" 2 s.Ch.rpcs

let test_respond_never_claimed_slot_rejected () =
  (* A respond on a slot the backend never claimed — e.g. driven by a
     guest rewriting the shared state word — must be refused even if
     the control page says "in service". *)
  let m, g = boot_null () in
  let ch = raw_channel (m, g) in
  run_in (M.engine m) (fun () ->
      match Ch.respond ch ~slot:0 noop_req with
      | () -> Alcotest.fail "unclaimed respond must raise"
      | exception Oskit.Errno.Unix_error (Oskit.Errno.EIO, _) -> ());
  let s = Ch.stats ch in
  Alcotest.(check int) "violation counted" 1 s.Ch.protocol_violations

(* ---- satellite: notify counter wraps at 2^32 ---- *)

let test_notify_wraps_at_2_32 () =
  let m, g = boot_null () in
  let ch = raw_channel (m, g) in
  (* 3 notifications below the wrap point *)
  Ch.preset_notify_counter ch 0xffff_fffd;
  let eng = M.engine m in
  let observed = ref [] in
  Sim.Engine.spawn eng ~name:"consumer" (fun () ->
      let rec loop () =
        match Ch.next_notification ch with
        | Some n ->
            observed := n :: !observed;
            loop ()
        | None -> ()
      in
      loop ());
  (* 7 notifications carry the u32 counter across the wrap
     (0xfffffffd + 7 = 4 mod 2^32); the delta must still be 7 *)
  Sim.Engine.at eng ~delay:10. (fun () ->
      for _ = 1 to 7 do
        Ch.notify ch
      done);
  Sim.Engine.at eng ~delay:5_000. (fun () -> Ch.kill ~poison:true ch);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "wrap-safe delta observed" [ 7 ] !observed;
  let s = Ch.stats ch in
  Alcotest.(check int) "all 7 counted" 7 s.Ch.notifications

(* ---- satellite: drain spans start where the scan starts ---- *)

let test_drain_spans_tight_and_tiling () =
  (* Pre-fix, back:drain was stamped at next_request entry, so under a
     serial op stream each drain span swallowed the whole inter-op idle
     gap (~2 interrupt legs).  It must now be far below one leg while
     the per-op stage spans still tile exactly. *)
  let tracer = Obs.Trace.create () in
  let config = { Config.default with Config.tracer } in
  let m, g = boot_null ~config () in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let k = g.M.kernel in
      let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/null0") in
      for _ = 1 to 20 do
        let (_ : int) =
          Fixtures.ok (Oskit.Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L)
        in
        ()
      done);
  let r = Obs.Trace.reconcile tracer in
  Alcotest.(check bool) "ops reconciled" true (r.Obs.Trace.r_ops >= 20);
  Alcotest.(check bool)
    (Printf.sprintf "stage spans tile exactly (max gap %.3f us)"
       r.Obs.Trace.r_max_gap_us)
    true
    (r.Obs.Trace.r_max_gap_us <= 0.001);
  match List.assoc_opt "stage.back:drain" (Obs.Trace.histograms tracer) with
  | None -> Alcotest.fail "no back:drain spans recorded"
  | Some h ->
      let mean = Sim.Stats.mean h in
      Alcotest.(check bool)
        (Printf.sprintf "drain spans exclude the idle wait (mean %.2f us)" mean)
        true
        (mean < 5.0)

(* ---- satellite: adaptive forwarded-poll backoff ---- *)

let link_pool (g : M.guest) = g.M.link.Paradice.Cvd_back.pool

(* live-switch a guest's channels to [preset]'s signalling parameters *)
let switch_signalling g (preset : Config.t) =
  Paradice.Chan_pool.set_signalling (link_pool g) preset.Config.signalling

let forwarded_poll_latency ?switch_to config =
  (* Event becomes ready 2 us into the frontend's backoff gap after the
     first not-ready chunk; the elapsed time to the ready reply exposes
     the backoff the frontend slept.  [switch_to] live-switches the
     guest's signalling before anything runs. *)
  let m = M.create ~config () in
  let mouse = M.attach_mouse m in
  let g = M.add_guest m ~name:"g" () in
  Option.iter (switch_signalling g) switch_to;
  let chunk = Config.poll_forward_chunk_us in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"poller" in
      let k = g.M.kernel in
      let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/input/event0") in
      Sim.Engine.at (M.engine m) ~delay:(chunk +. 2.) (fun () ->
          Devices.Evdev.inject mouse
            {
              Devices.Evdev.time_us = 0.;
              ev_type = Devices.Evdev.ev_rel;
              code = Devices.Evdev.rel_x;
              value = 1;
            });
      let t0 = Sim.Engine.now (M.engine m) in
      let pr =
        Fixtures.ok
          (Oskit.Vfs.poll k app fd ~want_in:true ~want_out:false
             ~timeout:1_000_000.)
      in
      Alcotest.(check bool) "poll reports readable" true pr.Oskit.Defs.pollin;
      Sim.Engine.now (M.engine m) -. t0)

let test_poll_backoff_adapts_under_hybrid () =
  let fixed = forwarded_poll_latency Config.default in
  let hybrid = forwarded_poll_latency Config.hybrid in
  (* hybrid starts its backoff at the poll window (20 us), the default
     keeps the old 50 us constant — for an event landing just after the
     first chunk the hybrid path must observe it a full backoff step
     sooner (and the interrupt->polling RTT saving on top) *)
  Alcotest.(check bool)
    (Printf.sprintf "hybrid backs off sooner (%.1f vs %.1f us)" hybrid fixed)
    true
    (hybrid +. 20. <= fixed)

let test_poll_backoff_follows_live_switch () =
  (* the backoff reads the pool's live window, not the static config:
     a default machine switched to hybrid before its first poll backs
     off exactly like a machine built hybrid *)
  let built = forwarded_poll_latency Config.hybrid in
  let switched = forwarded_poll_latency ~switch_to:Config.hybrid Config.default in
  Alcotest.(check (float 0.)) "switched = built hybrid" built switched

(* ---- multi-op descriptors: wire format and validation ---- *)

let test_batch_roundtrip () =
  let reqs =
    [
      P.Rnoop;
      P.Rioctl { vfd = 3; cmd = 0x1234; arg = 77L };
      P.Rread { vfd = 3; buf = 0x4000; len = 64 };
      P.Rwrite { vfd = 4; buf = 0x5000; len = 16 };
      P.Rpoll { vfd = 3; want_in = true; want_out = false; timeout_us = 100. };
      P.Rfasync { vfd = 3; on = true };
      P.Rrelease { vfd = 4 };
    ]
  in
  let b = P.encode_request ~grant_ref:5 ~pid:42 (P.Rbatch reqs) in
  let req', gref', pid' = P.decode_request b in
  Alcotest.(check bool) "batch round-trips" true (req' = P.Rbatch reqs);
  Alcotest.(check int) "grant_ref" 5 gref';
  Alcotest.(check int) "pid" 42 pid'

let test_batch_limits_and_validation () =
  (* empty and oversized batches are not encodable *)
  (match P.encode_request ~grant_ref:0 ~pid:0 (P.Rbatch []) with
  | (_ : bytes) -> Alcotest.fail "empty batch must be rejected"
  | exception Invalid_argument _ -> ());
  (match
     P.encode_request ~grant_ref:0 ~pid:0
       (P.Rbatch (List.init (P.max_batch_ops + 1) (fun _ -> P.Rnoop)))
   with
  | (_ : bytes) -> Alcotest.fail "oversized batch must be rejected"
  | exception Invalid_argument _ -> ());
  (* non-batchable sub-ops cannot be encoded into a batch *)
  (match
     P.encode_request ~grant_ref:0 ~pid:0
       (P.Rbatch [ P.Ropen { path = "/dev/null0" } ])
   with
  | (_ : bytes) -> Alcotest.fail "open is not batchable"
  | exception Invalid_argument _ -> ());
  (* sanitization applies per sub-op, naming the offending record *)
  let validate req =
    P.validate_limits
      ~limits:
        {
          Paradice.Wire_spec.max_transfer_bytes = 4096;
          poll_timeout_cap_us = 1_000.;
          grant_capacity = 170;
        }
      (req, 0, 1)
  in
  (match validate (P.Rbatch [ P.Rnoop; P.Rread { vfd = 1; buf = 0; len = 9999 } ]) with
  | Error v ->
      Alcotest.(check string) "violation names the sub-op" "batch[1].len"
        v.P.field
  | Ok _ -> Alcotest.fail "oversized sub-op read must fail the batch");
  (* clamping inside a batch works like clamping a singleton *)
  match
    validate
      (P.Rbatch
         [ P.Rpoll { vfd = 1; want_in = true; want_out = false; timeout_us = 9e9 } ])
  with
  | Ok (P.Rbatch [ P.Rpoll { timeout_us; _ } ]) ->
      Alcotest.(check (float 0.001)) "sub-op poll timeout clamped" 1_000.
        timeout_us
  | _ -> Alcotest.fail "clamped batch must validate"

let test_batch_end_to_end () =
  let m, g = boot_null () in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"batcher" in
      let k = g.M.kernel in
      let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/null0") in
      let file = Option.get (Hashtbl.find_opt app.Oskit.Defs.fds fd) in
      (* five no-op ioctls ride one ring slot *)
      let results =
        Paradice.Cvd_front.batch_ioctl g.M.frontend app file
          (List.init 5 (fun _ -> (M.null_ioctl, 0L)))
      in
      Alcotest.(check (list int)) "five sub-ops succeeded" [ 0; 0; 0; 0; 0 ]
        results;
      (* a failing sub-op occupies its reply slot without aborting the
         batch (io_uring CQE semantics) *)
      let vfd = 1 (* first vfd handed out by the backend *) in
      let subs =
        Paradice.Cvd_front.forward_batch g.M.frontend app ~ops:[]
          [
            P.Rioctl { vfd; cmd = M.null_ioctl; arg = 0L };
            P.Rioctl { vfd; cmd = 0xdead; arg = 0L };
            P.Rioctl { vfd; cmd = M.null_ioctl; arg = 0L };
          ]
      in
      (match subs with
      | [ P.Rok 0; P.Rerr _; P.Rok 0 ] -> ()
      | _ -> Alcotest.fail "failing sub-op must not abort the batch");
      (* nested batches are refused at the dispatch layer too *)
      (match
         Paradice.Cvd_front.forward_batch g.M.frontend app ~ops:[]
           [ P.Rnoop ]
       with
      | [ P.Rok 0 ] -> ()
      | _ -> Alcotest.fail "singleton batch must succeed");
      (* the whole batch consumed exactly one ring exchange each time *)
      let s = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
      Alcotest.(check bool)
        (Printf.sprintf "batches ride single descriptors (%d rpcs)"
           s.Paradice.Chan_pool.rpcs)
        true
        (s.Paradice.Chan_pool.rpcs <= 4))

(* ---- hybrid notification: latency and live switching ---- *)

(* A noop stream: (average latency, pool stats, simulated end time).
   [switch_to] live-switches the guest before its first op. *)
let noop_run ?switch_to config ~ops =
  let m, env = Baselines.Setup.make ~devices:[ Baselines.Setup.Null ]
      (Baselines.Setup.Paradice config)
  in
  let g = List.hd (M.guests m) in
  Option.iter (switch_signalling g) switch_to;
  let avg = Workloads.Noop_bench.run env ~ops () in
  let _, _, st = Paradice.Cvd_front.stats g.M.frontend in
  (avg, st, Sim.Engine.now (M.engine m))

let test_hybrid_noop_latency_near_polling () =
  let hybrid, hst, _ = noop_run Config.hybrid ~ops:300 in
  let polling, _, _ = noop_run Config.polling ~ops:300 in
  let interrupts, _, _ = noop_run Config.default ~ops:300 in
  Alcotest.(check bool)
    (Printf.sprintf "hybrid %.2f us <= 2x polling %.2f us" hybrid polling)
    true
    (hybrid <= 2. *. polling);
  Alcotest.(check bool)
    (Printf.sprintf "hybrid %.2f us well under interrupts %.2f us" hybrid
       interrupts)
    true
    (hybrid *. 4. < interrupts);
  (* the savings came from poll-window handoffs, not from interrupt
     legs becoming cheap *)
  Alcotest.(check bool) "poll pickups carried the stream" true
    (hst.Paradice.Chan_pool.req_poll_pickups > 200);
  Alcotest.(check bool) "interrupt legs only at stream edges" true
    (hst.Paradice.Chan_pool.legs < 20)

let test_live_mode_switch_on_channel () =
  (* interrupt -> hybrid -> polling -> back, mid-stream on one raw
     channel with a live echo backend: every exchange completes under
     every parameter set and handoffs only appear with a window. *)
  let m, g = boot_null () in
  let ch = raw_channel (m, g) in
  let eng = M.engine m in
  Sim.Engine.spawn eng ~name:"echo" (fun () ->
      let rec loop () =
        match Ch.next_request ch with
        | None -> ()
        | Some (slot, req) ->
            Ch.respond ch ~slot req;
            loop ()
      in
      loop ());
  let completed = ref 0 in
  run_in eng (fun () ->
      let burst () =
        for _ = 1 to 10 do
          ignore (Ch.rpc ch noop_req);
          incr completed
        done
      in
      Alcotest.(check bool) "starts with the default parameters" true
        (Ch.signalling ch = Config.default.Config.signalling);
      burst ();
      let s0 = Ch.stats ch in
      Alcotest.(check int) "no handoffs in interrupt mode" 0
        (s0.Ch.req_poll_pickups + s0.Ch.resp_poll_deliveries);
      Ch.set_signalling ch Config.hybrid.Config.signalling;
      burst ();
      let s1 = Ch.stats ch in
      Alcotest.(check bool) "hybrid burst rode poll handoffs" true
        (s1.Ch.req_poll_pickups > 5);
      Ch.set_signalling ch Config.polling.Config.signalling;
      burst ();
      Ch.set_signalling ch Config.default.Config.signalling;
      burst ());
  Sim.Engine.spawn eng (fun () -> Ch.kill ~poison:true ch);
  Sim.Engine.run eng;
  Alcotest.(check int) "every exchange completed across the switches" 40
    !completed;
  (* a default machine switched to a preset's parameters before its
     first op runs the preset's noop stream exactly *)
  List.iter
    (fun (name, preset) ->
      let _, built_stats, built_end = noop_run preset ~ops:50 in
      let _, switched_stats, switched_end =
        noop_run ~switch_to:preset Config.default ~ops:50
      in
      Alcotest.(check (float 0.)) (name ^ ": same end time") built_end switched_end;
      Alcotest.(check bool) (name ^ ": same pool stats") true
        (built_stats = switched_stats))
    [ ("polling", Config.polling); ("hybrid", Config.hybrid) ]

let test_mode_labels () =
  (* the column headers of every EXPERIMENTS.md table, derived from the
     signalling parameters *)
  List.iter
    (fun (config, label) ->
      Alcotest.(check string) label label
        (Baselines.Setup.mode_label (Baselines.Setup.Paradice config)))
    [
      (Config.default, "Paradice");
      (Config.polling, "Paradice(P)");
      (Config.hybrid, "Paradice(H)");
      (Config.with_data_isolation Config.default, "Paradice(DI)");
      (Config.remote_dsm, "Paradice");
    ]

let suites =
  [
    ( "notify.ring_accounting",
      [
        Alcotest.test_case "double respond is a protocol violation" `Quick
          test_double_respond_is_protocol_violation;
        Alcotest.test_case "respond on unclaimed slot rejected" `Quick
          test_respond_never_claimed_slot_rejected;
        Alcotest.test_case "notify counter wraps at 2^32" `Quick
          test_notify_wraps_at_2_32;
        Alcotest.test_case "drain spans tight and tiling" `Quick
          test_drain_spans_tight_and_tiling;
      ] );
    ( "notify.batch",
      [
        Alcotest.test_case "batch wire round-trip" `Quick test_batch_roundtrip;
        Alcotest.test_case "batch limits and per-sub-op sanitization" `Quick
          test_batch_limits_and_validation;
        Alcotest.test_case "batch end-to-end on the null device" `Quick
          test_batch_end_to_end;
      ] );
    ( "notify.hybrid",
      [
        Alcotest.test_case "forwarded-poll backoff adapts" `Quick
          test_poll_backoff_adapts_under_hybrid;
        Alcotest.test_case "forwarded-poll backoff follows live switch" `Quick
          test_poll_backoff_follows_live_switch;
        Alcotest.test_case "hybrid noop latency near polling" `Quick
          test_hybrid_noop_latency_near_polling;
        Alcotest.test_case "live mode switch mid-stream" `Quick
          test_live_mode_switch_on_channel;
        Alcotest.test_case "mode labels from parameters" `Quick
          test_mode_labels;
      ] );
  ]
