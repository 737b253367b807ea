(* Tests for the discrete-event simulation core. *)

let check_float = Alcotest.(check (float 1e-9))

let test_empty_run () =
  let eng = Sim.Engine.create () in
  Sim.Engine.run eng;
  check_float "time stays at zero" 0. (Sim.Engine.now eng)

let test_wait_advances_time () =
  let eng = Sim.Engine.create () in
  let finished = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 10.;
      Sim.Engine.wait 5.;
      finished := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "waits accumulate" 15. !finished;
  check_float "engine time" 15. (Sim.Engine.now eng)

let test_spawn_does_not_preempt () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.spawn eng (fun () ->
      log := "a1" :: !log;
      Sim.Engine.spawn eng (fun () -> log := "b" :: !log);
      log := "a2" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "spawner runs to its next yield first"
    [ "a1"; "a2"; "b" ] (List.rev !log)

let test_event_ordering_deterministic () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let p name delay =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.wait delay;
        log := name :: !log)
  in
  p "late" 10.;
  p "early" 1.;
  p "tie1" 5.;
  p "tie2" 5.;
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "time order, FIFO on ties"
    [ "early"; "tie1"; "tie2"; "late" ] (List.rev !log)

let test_run_until () =
  let eng = Sim.Engine.create () in
  let hits = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 10.;
      incr hits;
      Sim.Engine.wait 10.;
      incr hits);
  Sim.Engine.run ~until:15. eng;
  Alcotest.(check int) "only first event ran" 1 !hits;
  check_float "clock stops at limit" 15. (Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "remaining events run on resume" 2 !hits;
  check_float "clock advances" 20. (Sim.Engine.now eng)

let test_run_until_never_rewinds () =
  let eng = Sim.Engine.create () in
  Sim.Engine.at eng ~delay:20. ignore;
  Sim.Engine.run ~until:15. eng;
  check_float "clock stops at the limit" 15. (Sim.Engine.now eng);
  Sim.Engine.run ~until:10. eng;
  check_float "an earlier limit leaves the clock alone" 15. (Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "the queued event still runs" 20. (Sim.Engine.now eng)

(* The queue must not keep a run event alive: its closure, and what the
   closure captured, are garbage once it has run. *)
let test_run_event_not_retained () =
  let eng = Sim.Engine.create () in
  let weak = Weak.create 1 in
  let arm () =
    let captured = Bytes.create 64 in
    Weak.set weak 0 (Some captured);
    Sim.Engine.at eng ~delay:1. (fun () -> ignore (Sys.opaque_identity captured))
  in
  arm ();
  Sim.Engine.run eng;
  Gc.full_major ();
  Alcotest.(check bool) "captured value collected" false (Weak.check weak 0);
  (* the engine, and so its queue, was live across the collection *)
  ignore (Sys.opaque_identity eng)

let test_suspend_wake () =
  let eng = Sim.Engine.create () in
  let waker_cell = ref None in
  let got = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      let v = Sim.Engine.suspend (fun waker -> waker_cell := Some waker) in
      got := v);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 3.;
      match !waker_cell with Some w -> w 42 | None -> Alcotest.fail "no waker");
  Sim.Engine.run eng;
  Alcotest.(check int) "value delivered" 42 !got;
  check_float "woke at waker time" 3. (Sim.Engine.now eng)

let test_suspend_waker_idempotent () =
  let eng = Sim.Engine.create () in
  let resumes = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      let _v =
        Sim.Engine.suspend (fun waker ->
            Sim.Engine.at eng ~delay:1. (fun () -> waker 1);
            Sim.Engine.at eng ~delay:2. (fun () -> waker 2))
      in
      incr resumes);
  Sim.Engine.run eng;
  Alcotest.(check int) "resumed exactly once" 1 !resumes

let test_deadlock_detection () =
  let eng = Sim.Engine.create () in
  Sim.Engine.spawn eng (fun () ->
      let (_ : int) = Sim.Engine.suspend (fun _waker -> ()) in
      ());
  Sim.Engine.run eng;
  Alcotest.(check bool) "stuck process detected" true (Sim.Engine.deadlocked eng)

(* ---- in-place waits ---- *)

(* Minor words per call of [wait 1.] over [n] calls from the running
   process: none in place, about 13 queued. *)
let words_per_wait n =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Sim.Engine.wait 1.
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let check_in_place what words =
  if words >= 1. then Alcotest.failf "%s: %.2f words per wait, not in place" what words

let test_wait_yields_to_event_at_wake_time () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng ~delay:1. (fun () -> log := "callback" :: !log);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 1.;
      log := "waiter" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "the event queued at the wake time runs first"
    [ "callback"; "waiter" ] (List.rev !log);
  check_float "clock" 1. (Sim.Engine.now eng)

let test_in_place_wait_stops_at_limit () =
  let eng = Sim.Engine.create () in
  let woke = ref [] in
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        Sim.Engine.wait 1.;
        woke := Sim.Engine.now eng :: !woke
      done);
  Sim.Engine.run ~until:2. eng;
  Alcotest.(check (list (float 0.))) "waits up to the limit" [ 1.; 2. ] (List.rev !woke);
  check_float "clock stops at the limit" 2. (Sim.Engine.now eng);
  Sim.Engine.run ~until:2.5 eng;
  check_float "a wake past the limit stays queued" 2.5 (Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check (list (float 0.))) "resumed by the next run" [ 1.; 2.; 3. ]
    (List.rev !woke);
  check_float "clock" 3. (Sim.Engine.now eng)

let test_negative_wait_raises_in_process () =
  let eng = Sim.Engine.create () in
  let raised = ref "" in
  Sim.Engine.spawn eng (fun () ->
      (try Sim.Engine.wait (-1.) with Invalid_argument msg -> raised := msg);
      Sim.Engine.wait 2.);
  Sim.Engine.run eng;
  Alcotest.(check string) "raised in the process" "Engine.wait: negative delay" !raised;
  check_float "the process went on" 2. (Sim.Engine.now eng)

let test_callback_wait_unhandled () =
  let eng = Sim.Engine.create () in
  Sim.Engine.spawn eng (fun () -> Sim.Engine.wait 10.);
  Sim.Engine.at eng ~delay:1. (fun () -> Sim.Engine.wait 5.);
  (match Sim.Engine.run eng with
  | () -> Alcotest.fail "a wait in a callback returned"
  | exception Effect.Unhandled _ -> ());
  check_float "the clock did not move past the callback" 1. (Sim.Engine.now eng)

let test_slot_restored_after_nested_run () =
  let eng = Sim.Engine.create () and inner = Sim.Engine.create () in
  let words = ref [] in
  Sim.Engine.spawn inner (fun () -> Sim.Engine.wait 7.);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 1.;
      Sim.Engine.run inner;
      words := words_per_wait 100 :: !words;
      (* the same engine, run from one of its own processes with a
         nearer limit than the outer run's *)
      Sim.Engine.at eng ~delay:1. ignore;
      Sim.Engine.run ~until:(Sim.Engine.now eng +. 2.) eng;
      words := words_per_wait 100 :: !words);
  Sim.Engine.run ~until:1000. eng;
  check_float "inner clock" 7. (Sim.Engine.now inner);
  check_float "outer clock" 202. (Sim.Engine.now eng);
  List.iter (check_in_place "after a nested run") !words

let test_slot_restored_after_exception () =
  let eng = Sim.Engine.create () and inner = Sim.Engine.create () in
  let words = ref nan in
  Sim.Engine.at inner ~delay:1. (fun () -> raise Exit);
  Sim.Engine.spawn eng (fun () ->
      (try Sim.Engine.run inner with Exit -> ());
      words := words_per_wait 100);
  Sim.Engine.run eng;
  check_in_place "after an exception left a nested run" !words;
  check_float "outer clock" 100. (Sim.Engine.now eng);
  (* with no run active any more, a wait is unhandled again *)
  Sim.Engine.at eng ~delay:1. (fun () -> raise Exit);
  (try Sim.Engine.run eng with Exit -> ());
  match Sim.Engine.wait 1. with
  | () -> Alcotest.fail "a wait outside every run returned"
  | exception Effect.Unhandled _ -> check_float "clock" 101. (Sim.Engine.now eng)

let test_wait_allocation () =
  let n = 10_000 in
  let eng = Sim.Engine.create () in
  let queued = ref nan and alone = ref nan in
  (* two processes waiting in step: each wake finds the other's due
     first, so every wait is queued, and the first process's window
     holds both processes' waits *)
  Sim.Engine.spawn eng (fun () ->
      queued := words_per_wait n /. 2.;
      alone := words_per_wait n);
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to n do
        Sim.Engine.wait 1.
      done);
  Sim.Engine.run eng;
  if !queued > 13.01 then Alcotest.failf "a queued wait allocates %.2f words" !queued;
  check_in_place "a lone process" !alone

let test_mailbox_fifo () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create eng in
  let got = ref [] in
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Sim.Mailbox.recv mb :: !got
      done);
  Sim.Engine.spawn eng (fun () ->
      Sim.Mailbox.send mb 1;
      Sim.Engine.wait 1.;
      Sim.Mailbox.send mb 2;
      Sim.Mailbox.send mb 3);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "messages in order" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_buffers_when_no_receiver () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create eng in
  Sim.Mailbox.send mb "x";
  Sim.Mailbox.send mb "y";
  let got = ref [] in
  Sim.Engine.spawn eng (fun () ->
      let first = Sim.Mailbox.recv mb in
      let second = Sim.Mailbox.recv mb in
      got := [ first; second ]);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "buffered sends" [ "x"; "y" ] !got

let test_mailbox_recv_timeout () =
  let eng = Sim.Engine.create () in
  let mb : int Sim.Mailbox.t = Sim.Mailbox.create eng in
  let first = ref (Some 0) and second = ref None in
  Sim.Engine.spawn eng (fun () ->
      first := Sim.Mailbox.recv_timeout mb ~timeout:5.;
      second := Sim.Mailbox.recv_timeout mb ~timeout:100.);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 20.;
      Sim.Mailbox.send mb 9);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "first recv timed out" None !first;
  Alcotest.(check (option int)) "second recv got message" (Some 9) !second

let test_mailbox_timeout_fires () =
  let eng = Sim.Engine.create () in
  let mb : int Sim.Mailbox.t = Sim.Mailbox.create eng in
  let result = ref (Some 0) in
  Sim.Engine.spawn eng (fun () -> result := Sim.Mailbox.recv_timeout mb ~timeout:5.);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "timed out" None !result;
  check_float "timeout consumed simulated time" 5. (Sim.Engine.now eng)

let test_mailbox_timeout_won_by_send () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create eng in
  let result = ref None and woke_at = ref nan in
  Sim.Engine.spawn eng (fun () ->
      result := Sim.Mailbox.recv_timeout mb ~timeout:5.;
      woke_at := Sim.Engine.now eng);
  Sim.Engine.at eng ~delay:2. (fun () -> Sim.Mailbox.send mb 7);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "send won" (Some 7) !result;
  (* The disarmed timer still pops (and is ignored) at t=5, but the
     process itself resumed at t=2. *)
  check_float "woke before timeout" 2. !woke_at

let test_mailbox_dead_waiter_redispatch () =
  (* A timed-out waiter must not swallow a message while a live waiter
     is blocked behind it. *)
  let eng = Sim.Engine.create () in
  let mb : int Sim.Mailbox.t = Sim.Mailbox.create eng in
  let live_got = ref None in
  Sim.Engine.spawn eng (fun () ->
      (* becomes the dead waiter *)
      ignore (Sim.Mailbox.recv_timeout mb ~timeout:1.);
      Sim.Engine.wait 1000.);
  Sim.Engine.spawn eng (fun () ->
      (* blocks behind the dead waiter, forever-patient *)
      live_got := Some (Sim.Mailbox.recv mb));
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 10.;
      Sim.Mailbox.send mb 5);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "live waiter got the message" (Some 5) !live_got

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:42L and b = Sim.Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_int_in_range () =
  (* Regression: [Int64.to_int] of a 63-bit draw wrapped negative on
     63-bit OCaml ints, so [Rng.int] returned negatives about half the
     time. *)
  let r = Sim.Rng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 256 in
    if v < 0 || v >= 256 then
      Alcotest.failf "Rng.int out of range: %d" v
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:42L in
  let b = Sim.Rng.split a in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_derive_pure () =
  (* derive is a pure function of (seed, index): re-deriving the same
     stream replays it exactly, and deriving other indices in between
     (construction order) changes nothing *)
  let tap rng = List.init 50 (fun _ -> Sim.Rng.next_int64 rng) in
  let a = tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:3) in
  ignore (tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:0));
  ignore (tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:7));
  let a' = tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:3) in
  Alcotest.(check bool) "stable across runs and order" true (a = a');
  Alcotest.(check bool) "index 0 differs from the master stream" true
    (tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:0)
    <> tap (Sim.Rng.create ~seed:0xF1EE7L));
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.derive: index must be >= 0") (fun () ->
      ignore (Sim.Rng.derive ~seed:1L ~index:(-1)))

let test_rng_derive_uncorrelated () =
  (* adjacent shard streams must not be trivially correlated: no shared
     draws, and each stream alone still looks uniform (mean of many
     [0,1) floats near 0.5) *)
  let n = 2_000 in
  let streams =
    List.init 4 (fun i -> Sim.Rng.derive ~seed:0xD00DL ~index:i)
  in
  let draws = List.map (fun r -> Array.init n (fun _ -> Sim.Rng.float r 1.)) streams in
  List.iteri
    (fun i xs ->
      let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
      if Float.abs (mean -. 0.5) > 0.03 then
        Alcotest.failf "stream %d mean %.3f far from 0.5" i mean)
    draws;
  (* pairwise: identical positions almost never collide *)
  List.iteri
    (fun i xs ->
      List.iteri
        (fun j ys ->
          if j > i then begin
            let coll = ref 0 in
            for k = 0 to n - 1 do
              if xs.(k) = ys.(k) then incr coll
            done;
            if !coll > 0 then
              Alcotest.failf "streams %d/%d share %d draws" i j !coll
          end)
        draws)
    draws

let test_stats () =
  let s = Sim.Stats.create "t" in
  List.iter (Sim.Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  check_float "mean" 3. (Sim.Stats.mean s);
  check_float "min" 1. (Sim.Stats.min_value s);
  check_float "max" 5. (Sim.Stats.max_value s);
  check_float "median" 3. (Sim.Stats.median s);
  Alcotest.(check int) "count" 5 (Sim.Stats.count s)

let test_stats_percentiles () =
  (* Known quantiles under linear interpolation (rank = p/100*(n-1)).
     Regression: nearest-rank rounding used to snap p99 of a small run
     to the maximum sample. *)
  let s = Sim.Stats.create "q" in
  List.iter (fun x -> Sim.Stats.add s (float_of_int x)) [ 30; 10; 50; 20; 40; 90; 70; 100; 60; 80 ];
  check_float "p0 = min" 10. (Sim.Stats.percentile s 0.);
  check_float "p100 = max" 100. (Sim.Stats.percentile s 100.);
  check_float "p50 interpolates" 55. (Sim.Stats.percentile s 50.);
  check_float "p90 interpolates" 91. (Sim.Stats.percentile s 90.);
  check_float "p99 below max" 99.1 (Sim.Stats.percentile s 99.);
  (* the sorted cache must be invalidated by a later add *)
  Sim.Stats.add s 0.;
  check_float "cache invalidated on add" 0. (Sim.Stats.percentile s 0.);
  check_float "p50 shifts with the new sample" 50. (Sim.Stats.percentile s 50.)

let test_stats_merge () =
  (* merged accumulators must equal pooling the raw samples — the
     fleet's cross-shard aggregation path *)
  let rng = Sim.Rng.create ~seed:99L in
  let parts = List.init 4 (fun i -> Sim.Stats.create (Printf.sprintf "s%d" i)) in
  let pooled = Sim.Stats.create "pooled" in
  List.iter
    (fun part ->
      for _ = 1 to 250 do
        let x = Sim.Rng.float rng 1000. in
        Sim.Stats.add part x;
        Sim.Stats.add pooled x
      done)
    parts;
  let merged = Sim.Stats.merge parts in
  Alcotest.(check int) "count" (Sim.Stats.count pooled) (Sim.Stats.count merged);
  check_float "mean" (Sim.Stats.mean pooled) (Sim.Stats.mean merged);
  check_float "min" (Sim.Stats.min_value pooled) (Sim.Stats.min_value merged);
  check_float "max" (Sim.Stats.max_value pooled) (Sim.Stats.max_value merged);
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "p%.1f" p)
        (Sim.Stats.percentile pooled p)
        (Sim.Stats.percentile merged p))
    [ 50.; 90.; 99.; 99.9 ];
  check_float "p99 accessor" (Sim.Stats.percentile merged 99.) (Sim.Stats.p99 merged);
  check_float "p999 accessor" (Sim.Stats.percentile merged 99.9) (Sim.Stats.p999 merged);
  (* sources unchanged; merge_into keeps accepting adds (cache reset) *)
  Alcotest.(check int) "source untouched" 250 (Sim.Stats.count (List.hd parts));
  Sim.Stats.add merged 1.0e9;
  check_float "max after later add" 1.0e9 (Sim.Stats.max_value merged);
  check_float "p100 after later add" 1.0e9 (Sim.Stats.percentile merged 100.)

(* Samples sit in a flat float array that doubles when full, and the
   running sums in an all-float record: between growths [add] allocates
   nothing. *)
let test_stats_add_allocation () =
  let s = Sim.Stats.create "alloc" in
  let x = 1.5 in
  (* 513 samples grow the array to room for 1,024 *)
  for _ = 1 to 513 do
    Sim.Stats.add s x
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 511 do
    Sim.Stats.add s x
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 511 adds (at most 4, the reading's own)" words)
    true (words <= 4.);
  check_float "mean kept" 1.5 (Sim.Stats.mean s)

(* Property tests *)

(* A model test: random pushes and pops, interleaved, on a handful of
   distinct times so that ties abound, against a sorted-list reference
   of (time, seq) pairs. *)
let prop_heap_pops_sorted =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:300
    QCheck.(list (option (int_bound 4)))
    (fun script ->
      let heap = Sim.Heap.create ~dummy:(nan, -1) in
      let model = ref [] and seq = ref 0 in
      let pop_agrees () =
        match !model with
        | [] -> Sim.Heap.is_empty heap
        | ((time, _) as e) :: rest ->
            model := rest;
            Sim.Heap.min_time heap = time && Sim.Heap.pop heap = e
      in
      let step = function
        | Some t ->
            let e = (float_of_int t, !seq) in
            Sim.Heap.push heap ~time:(fst e) ~seq:!seq e;
            incr seq;
            model := List.merge compare !model [ e ];
            true
        | None -> pop_agrees ()
      in
      List.for_all step script
      && List.for_all (fun _ -> pop_agrees ()) !model
      && Sim.Heap.is_empty heap)

let prop_engine_time_monotonic =
  QCheck.Test.make ~name:"engine time is monotonic over random waits" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 100.))
    (fun delays ->
      let eng = Sim.Engine.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          Sim.Engine.spawn eng (fun () ->
              Sim.Engine.wait d;
              times := Sim.Engine.now eng :: !times))
        delays;
      Sim.Engine.run eng;
      let observed = List.rev !times in
      let rec monotonic = function
        | a :: (b :: _ as rest) -> a <= b && monotonic rest
        | _ -> true
      in
      monotonic observed)

(* A random script for [Queued_model]: 2-5 processes of up to 8 steps,
   delays from {0, 0.5, 1, 2} us so that ties abound, and up to three
   [run ~until] slices on the half-microsecond grid. *)
let gen_script seed =
  let open Queued_model in
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let delay () = [| 0.; 0.5; 1.; 2. |].(int 4) in
  let value = ref 0 in
  let step () =
    let mb = int mailboxes in
    match int 6 with
    | 0 | 1 -> Wait (delay ())
    | 2 -> incr value; Send (mb, !value)
    | 3 -> Recv mb
    | 4 -> Recv_timeout (mb, delay ())
    | _ -> incr value; At (delay (), mb, !value)
  in
  let procs = List.init (2 + int 4) (fun _ -> List.init (1 + int 8) (fun _ -> step ())) in
  let slices = List.sort compare (List.init (int 4) (fun _ -> float_of_int (int 13) /. 2.)) in
  { procs; slices }

(* The same script on [Sim.Engine] and [Sim.Mailbox], logged as the
   model logs it. *)
let run_script (script : Queued_model.script) =
  let open Queued_model in
  let eng = Sim.Engine.create () in
  let mbs = Array.init mailboxes (fun _ -> Sim.Mailbox.create eng) in
  let log = ref [] in
  let note p i what = log := (Sim.Engine.now eng, p, i, what) :: !log in
  List.iteri
    (fun p steps ->
      Sim.Engine.spawn eng (fun () ->
          List.iteri
            (fun i -> function
              | Wait d ->
                  Sim.Engine.wait d;
                  note p i "waited"
              | Send (mb, v) ->
                  Sim.Mailbox.send mbs.(mb) v;
                  note p i "sent"
              | At (d, mb, v) ->
                  Sim.Engine.at eng ~delay:d (fun () ->
                      note p i "fired";
                      Sim.Mailbox.send mbs.(mb) v);
                  note p i "armed"
              | Recv mb -> note p i (got (Some (Sim.Mailbox.recv mbs.(mb))))
              | Recv_timeout (mb, timeout) ->
                  note p i (got (Sim.Mailbox.recv_timeout mbs.(mb) ~timeout)))
            steps))
    script.procs;
  let live () = Sim.Engine.live_processes eng in
  List.iteri
    (fun k until ->
      Sim.Engine.run ~until eng;
      note (-1) k (Printf.sprintf "slice, %d live" (live ())))
    script.slices;
  Sim.Engine.run eng;
  note (-1) (List.length script.slices) (Printf.sprintf "end, %d live" (live ()));
  List.rev !log

let prop_in_place_matches_queued =
  QCheck.Test.make ~name:"in-place waits match the queued engine" ~count:500
    (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.(int_bound 0x3FFFFFFF))
    (fun seed ->
      let script = gen_script seed in
      let engine = run_script script and model = Queued_model.run script in
      engine = model
      ||
      let show (time, p, i, what) = Printf.sprintf "%g p%d.%d %s" time p i what in
      let rec first_diff = function
        | a :: x, b :: y -> if a = b then first_diff (x, y) else (show a, show b)
        | a :: _, [] -> (show a, "(end)")
        | [], b :: _ -> ("(end)", show b)
        | [], [] -> ("", "")
      in
      let e, m = first_diff (engine, model) in
      QCheck.Test.fail_reportf "seed %d: the engine logged %s where the queued model logged %s"
        seed e m)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"stats mean lies within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1e6))
    (fun xs ->
      let s = Sim.Stats.create "p" in
      List.iter (Sim.Stats.add s) xs;
      Sim.Stats.mean s >= Sim.Stats.min_value s -. 1e-6
      && Sim.Stats.mean s <= Sim.Stats.max_value s +. 1e-6)

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "empty run" `Quick test_empty_run;
        Alcotest.test_case "wait advances time" `Quick test_wait_advances_time;
        Alcotest.test_case "spawn does not preempt" `Quick test_spawn_does_not_preempt;
        Alcotest.test_case "deterministic ordering" `Quick test_event_ordering_deterministic;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "run until never rewinds the clock" `Quick
          test_run_until_never_rewinds;
        Alcotest.test_case "run events are not retained" `Quick
          test_run_event_not_retained;
        Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
        Alcotest.test_case "waker idempotent" `Quick test_suspend_waker_idempotent;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "wait yields to an event at its wake time" `Quick
          test_wait_yields_to_event_at_wake_time;
        Alcotest.test_case "in-place wait stops at the run limit" `Quick
          test_in_place_wait_stops_at_limit;
        Alcotest.test_case "negative wait raises in the process" `Quick
          test_negative_wait_raises_in_process;
        Alcotest.test_case "wait from a callback is unhandled" `Quick
          test_callback_wait_unhandled;
        Alcotest.test_case "slot restored after a nested run" `Quick
          test_slot_restored_after_nested_run;
        Alcotest.test_case "slot restored after an exception" `Quick
          test_slot_restored_after_exception;
        Alcotest.test_case "wait allocation" `Quick test_wait_allocation;
        QCheck_alcotest.to_alcotest prop_engine_time_monotonic;
        QCheck_alcotest.to_alcotest prop_in_place_matches_queued;
      ] );
    ( "sim.mailbox",
      [
        Alcotest.test_case "fifo delivery" `Quick test_mailbox_fifo;
        Alcotest.test_case "buffers without receiver" `Quick test_mailbox_buffers_when_no_receiver;
        Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
        Alcotest.test_case "timeout fires" `Quick test_mailbox_timeout_fires;
        Alcotest.test_case "timeout won by send" `Quick test_mailbox_timeout_won_by_send;
        Alcotest.test_case "dead waiter redispatch" `Quick test_mailbox_dead_waiter_redispatch;
      ] );
    ( "sim.support",
      [
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng int in range" `Quick test_rng_int_in_range;
        Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "rng derive pure" `Quick test_rng_derive_pure;
        Alcotest.test_case "rng derive uncorrelated" `Quick test_rng_derive_uncorrelated;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
        Alcotest.test_case "stats merge = pooled" `Quick test_stats_merge;
        Alcotest.test_case "stats add allocates nothing" `Quick test_stats_add_allocation;
        QCheck_alcotest.to_alcotest prop_heap_pops_sorted;
        QCheck_alcotest.to_alcotest prop_stats_mean_bounded;
      ] );
  ]
