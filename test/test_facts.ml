(* Tests for the per-ioctl interface facts (Analyzer.Facts), the
   generated sanitizers interpreting them (Paradice.Ioctl_guard), the
   tightened slice-taint transfer (Analyzer.Slice.has_nested_ops), and
   the golden `paradice analyze` fact table. *)

open Analyzer

let limits =
  {
    Paradice.Wire_spec.max_transfer_bytes = 4 * 1024 * 1024;
    poll_timeout_cap_us = 60_000_000.;
    grant_capacity = 170;
  }

let fact dev_class cmd =
  match Classes.fact_for ~dev_class ~cmd with
  | Some f -> f
  | None -> Alcotest.fail (Printf.sprintf "no fact for %s cmd %#x" dev_class cmd)

let field hf v =
  match List.find_opt (fun f -> f.Facts.ff_var = v) hf.Facts.hf_fields with
  | Some f -> f
  | None -> Alcotest.fail (Printf.sprintf "%s: no field %s" hf.Facts.hf_name v)

let check_range hf v =
  Alcotest.(check (pair (option int) (option int)))
    (hf.Facts.hf_name ^ "." ^ v ^ " range")
    ((field hf v).Facts.ff_range.Facts.lo, (field hf v).Facts.ff_range.Facts.hi)

let labels hf = List.map Facts.check_label (Facts.checks hf)

(* ---- registry ---- *)

let test_registry () =
  Alcotest.(check (list string)) "five classes, Defs.dev_class order"
    [ "gpu"; "input"; "camera"; "audio"; "net" ]
    (List.map fst Classes.all);
  List.iter
    (fun (cls, expected) ->
      match Classes.facts_for cls with
      | None -> Alcotest.fail ("no facts for " ^ cls)
      | Some t ->
          Alcotest.(check int) (cls ^ " handler count") expected
            (List.length t.Facts.fd_handlers))
    [ ("gpu", 7); ("input", 4); ("camera", 7); ("audio", 2); ("net", 2) ]

(* ---- per-class fact extraction: roles, ranges, nestedness ---- *)

let test_gpu_facts () =
  let cs = fact "gpu" Devices.Radeon_ioctl.cs in
  Alcotest.(check int) "cs arg bytes" Devices.Radeon_ioctl.cs_size cs.Facts.hf_arg_len;
  Alcotest.(check bool) "cs is nested" true cs.Facts.hf_nested;
  Alcotest.(check int) "cs pointer fields" 3 (Facts.ptr_count cs);
  Alcotest.(check int) "cs nested pointer fields" 2 (Facts.nested_ptr_count cs);
  (match (field cs "chunks_ptr").Facts.ff_role with
  | Facts.Ptr { nested } -> Alcotest.(check bool) "chunks_ptr depth-1" false nested
  | _ -> Alcotest.fail "chunks_ptr must be a pointer");
  (match (field cs "hdr_ptr").Facts.ff_role with
  | Facts.Ptr { nested } -> Alcotest.(check bool) "hdr_ptr nested" true nested
  | _ -> Alcotest.fail "hdr_ptr must be a pointer");
  (match (field cs "num_chunks").Facts.ff_role with
  | Facts.Len { bounds; scale } ->
      Alcotest.(check string) "num_chunks bounds ptrs table" "ptrs" bounds;
      Alcotest.(check int) "num_chunks scale" 8 scale
  | _ -> Alcotest.fail "num_chunks must be a length");
  Alcotest.(check bool) "num_chunks counts the chunk loop" true
    (field cs "num_chunks").Facts.ff_loop;
  check_range cs "num_chunks" (Some 1, Some 16);
  Alcotest.(check (list string)) "cs generated checks"
    [ "range:num_chunks"; "len:num_chunks" ] (labels cs);
  (* length_dw lives behind hdr_ptr: real fact, but not re-readable by a
     depth-1 sanitizer *)
  (match (field cs "length_dw").Facts.ff_role with
  | Facts.Len { bounds; scale } ->
      Alcotest.(check string) "length_dw bounds payload" "payload" bounds;
      Alcotest.(check int) "length_dw scale" 4 scale
  | _ -> Alcotest.fail "length_dw must be a length");
  Alcotest.(check bool) "length_dw not direct" false
    (field cs "length_dw").Facts.ff_direct;
  let info = fact "gpu" Devices.Radeon_ioctl.info in
  (match (field info "value_ptr").Facts.ff_role with
  | Facts.Ptr { nested } -> Alcotest.(check bool) "value_ptr depth-1" false nested
  | _ -> Alcotest.fail "value_ptr must be a pointer");
  let create = fact "gpu" Devices.Radeon_ioctl.gem_create in
  Alcotest.(check int) "gem_create has no extracted fields" 0
    (List.length create.Facts.hf_fields);
  Alcotest.(check (list string)) "gem_create needs no checks" [] (labels create)

let test_input_facts () =
  let gid = fact "input" Devices.Evdev.eviocgid in
  Alcotest.(check int) "gid is copy-out only" 0 gid.Facts.hf_arg_len;
  let srep = fact "input" Devices.Evdev.eviocsrep in
  Alcotest.(check int) "srep arg bytes" 8 srep.Facts.hf_arg_len;
  Alcotest.(check bool) "srep delay direct" true (field srep "delay").Facts.ff_direct;
  check_range srep "delay" (None, Some Devices.Evdev.rep_delay_max);
  check_range srep "period" (Some 1, Some Devices.Evdev.rep_period_max);
  Alcotest.(check (list string)) "srep generated checks"
    [ "range:delay"; "range:period" ] (labels srep);
  let grab = fact "input" Devices.Evdev.eviocgrab in
  Alcotest.(check int) "grab is a value argument" 0 grab.Facts.hf_arg_len;
  Alcotest.(check int) "grab slices to nothing" 0 grab.Facts.hf_lines

let test_camera_facts () =
  let reqbufs = fact "camera" Devices.V4l2_drv.vidioc_reqbufs in
  (match (field reqbufs "count").Facts.ff_role with
  | Facts.Len { bounds; scale } ->
      Alcotest.(check string) "count bounds the allocation loop" "loop" bounds;
      Alcotest.(check int) "count scale" 1 scale
  | _ -> Alcotest.fail "count must be a length");
  check_range reqbufs "count" (Some 1, Some V4l2_ir.max_buffers);
  Alcotest.(check (list string)) "reqbufs generated checks"
    [ "range:count"; "len:count" ] (labels reqbufs);
  let qbuf = fact "camera" Devices.V4l2_drv.vidioc_qbuf in
  (match (field qbuf "index").Facts.ff_role with
  | Facts.Index { table } ->
      Alcotest.(check string) "qbuf index selects buffer table" "buffer_table" table
  | _ -> Alcotest.fail "qbuf index must be an index");
  check_range qbuf "index" (None, Some (V4l2_ir.max_buffers - 1));
  let s_fmt = fact "camera" Devices.V4l2_drv.vidioc_s_fmt in
  check_range s_fmt "width" (Some 1, Some 4096);
  check_range s_fmt "height" (Some 1, Some 4096);
  Alcotest.(check (list string)) "s_fmt generated checks"
    [ "range:width"; "range:height" ] (labels s_fmt);
  let streamon = fact "camera" Devices.V4l2_drv.vidioc_streamon in
  Alcotest.(check int) "streamon copies nothing" 0 streamon.Facts.hf_arg_len

let test_audio_facts () =
  let sr = fact "audio" Devices.Pcm_drv.set_rate_ioctl in
  check_range sr "rate" (Some 8000, Some 192_000);
  check_range sr "channels" (Some 1, Some 8);
  Alcotest.(check (list string)) "set_rate generated checks"
    [ "range:rate"; "range:channels" ] (labels sr);
  let drain = fact "audio" Devices.Pcm_drv.drain_ioctl in
  Alcotest.(check (list string)) "drain needs no checks" [] (labels drain)

let test_net_facts () =
  let regif = fact "net" Devices.Netmap_drv.nioc_regif in
  Alcotest.(check int) "regif arg bytes" 16 regif.Facts.hf_arg_len;
  (* the Eq conditional pins ringid to exactly 0 *)
  check_range regif "ringid" (Some 0, Some 0);
  Alcotest.(check (list string)) "regif generated checks" [ "range:ringid" ]
    (labels regif)

(* every handler of every class has a fact record, and only depth-1
   constant-offset fields compile to checks *)
let test_every_handler_extracted () =
  List.iter
    (fun (cls, drv) ->
      List.iter
        (fun (h : Ir.handler) ->
          let hf = fact cls h.Ir.cmd in
          Alcotest.(check string)
            (cls ^ " name preserved") h.Ir.handler_name hf.Facts.hf_name;
          List.iter
            (fun c ->
              let off, w =
                match c with
                | Facts.Check_range { offset; width; _ }
                | Facts.Check_len { offset; width; _ } ->
                    (offset, width)
              in
              Alcotest.(check bool)
                (hf.Facts.hf_name ^ " check inside the copied struct") true
                (off >= 0 && off + w <= hf.Facts.hf_arg_len))
            (Facts.checks hf))
        drv.Ir.handlers)
    Classes.all

(* ---- the generated sanitizers: accept/reject per ioctl ---- *)

let make_rand seed =
  let s = ref seed in
  fun n ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    if n <= 0 then 0 else !s mod n

(* guest memory simulated by one flat byte store *)
let make_store () =
  let store = Bytes.make 4096 '\000' in
  let cursor = ref 64 in
  let mem =
    {
      Paradice.Ioctl_guard.Fuzz.alloc =
        (fun n ->
          let a = !cursor in
          cursor := !cursor + max n 8;
          a);
      write32 = (fun ~addr v -> Bytes.set_int32_le store addr (Int32.of_int v));
      write64 = (fun ~addr v -> Bytes.set_int64_le store addr v);
    }
  in
  let read ~addr ~len =
    if addr < 0 || addr + len > Bytes.length store then failwith "bad gva"
    else Bytes.sub store addr len
  in
  (mem, read)

let test_sanitizer_accepts_seeded () =
  let rand = make_rand 7 in
  List.iter
    (fun (cls, _) ->
      List.iter
        (fun cmd ->
          for _ = 1 to 8 do
            let mem, read = make_store () in
            let arg = Paradice.Ioctl_guard.Fuzz.seed ~rand mem ~dev_class:cls ~cmd in
            match Paradice.Ioctl_guard.check ~dev_class:cls ~cmd ~arg ~limits ~read with
            | Paradice.Ioctl_guard.Pass -> ()
            | Paradice.Ioctl_guard.Reject { handler; violated } ->
                Alcotest.fail
                  (Printf.sprintf "%s %#x: seeded argument rejected (%s %s)" cls cmd
                     handler violated)
          done)
        (Paradice.Ioctl_guard.Fuzz.cmds ~dev_class:cls))
    Classes.all

let test_sanitizer_rejects_each_violation () =
  let rand = make_rand 11 in
  let rejected = ref 0 in
  List.iter
    (fun (cls, drv) ->
      List.iter
        (fun (h : Ir.handler) ->
          let hf = fact cls h.Ir.cmd in
          List.iter
            (fun c ->
              match Paradice.Ioctl_guard.Fuzz.violation_value ~rand ~limits c with
              | None -> () (* lo=0-only ranges admit every unsigned value *)
              | Some bad ->
                  let mem, read = make_store () in
                  let arg =
                    Paradice.Ioctl_guard.Fuzz.seed ~rand mem ~dev_class:cls
                      ~cmd:h.Ir.cmd
                  in
                  let off, w =
                    match c with
                    | Facts.Check_range { offset; width; _ }
                    | Facts.Check_len { offset; width; _ } ->
                        (offset, width)
                  in
                  let addr = Int64.to_int arg + off in
                  (if w = 8 then mem.Paradice.Ioctl_guard.Fuzz.write64 ~addr (Int64.of_int bad)
                   else mem.Paradice.Ioctl_guard.Fuzz.write32 ~addr bad);
                  (match
                     Paradice.Ioctl_guard.check ~dev_class:cls ~cmd:h.Ir.cmd ~arg
                       ~limits ~read
                   with
                  | Paradice.Ioctl_guard.Reject { handler; violated } ->
                      incr rejected;
                      Alcotest.(check string)
                        (cls ^ " rejection names the handler") hf.Facts.hf_name handler;
                      (* the guard reports the FIRST violated check: a
                         huge loop count trips the range check before
                         the length check on the same field, so accept
                         any check label bound to the same offset *)
                      let same_field =
                        List.filter
                          (fun c' ->
                            match (c, c') with
                            | ( ( Facts.Check_range { offset = o1; _ }
                                | Facts.Check_len { offset = o1; _ } ),
                                ( Facts.Check_range { offset = o2; _ }
                                | Facts.Check_len { offset = o2; _ } ) ) ->
                                o1 = o2)
                          (Facts.checks hf)
                      in
                      Alcotest.(check bool)
                        (cls ^ " rejection names a check on the violated field") true
                        (List.mem violated (List.map Facts.check_label same_field))
                  | Paradice.Ioctl_guard.Pass ->
                      Alcotest.fail
                        (Printf.sprintf "%s %s: violation of %s passed" cls
                           hf.Facts.hf_name (Facts.check_label c))))
            (Facts.checks hf))
        drv.Ir.handlers)
    Classes.all;
  Alcotest.(check bool) "every class contributed rejectable checks" true (!rejected >= 8)

let test_sanitizer_passthrough () =
  let _, read = make_store () in
  (* unknown command: driver keeps its ENOTTY *)
  (match
     Paradice.Ioctl_guard.check ~dev_class:"audio" ~cmd:0xdeadbeef ~arg:64L ~limits ~read
   with
  | Paradice.Ioctl_guard.Pass -> ()
  | _ -> Alcotest.fail "unknown command must pass through");
  (* unreadable argument pointer: handler keeps its EFAULT *)
  (match
     Paradice.Ioctl_guard.check ~dev_class:"audio" ~cmd:Devices.Pcm_drv.set_rate_ioctl
       ~arg:0x7fff_0000L ~limits ~read
   with
  | Paradice.Ioctl_guard.Pass -> ()
  | _ -> Alcotest.fail "unreadable pointer must pass through to the handler");
  (* unknown class entirely *)
  match Paradice.Ioctl_guard.check ~dev_class:"test" ~cmd:1 ~arg:0L ~limits ~read with
  | Paradice.Ioctl_guard.Pass -> ()
  | _ -> Alcotest.fail "unanalyzed class must pass through"

(* A reference guard read straight off a class's facts: the command's
   first handler ([Classes.fact_for]) and its checks in order, each on
   the depth-1 struct at [arg].  A check whose field lies past the
   struct, or an unreadable struct, passes. *)
let reference_verdict ~dev_class ~cmd ~arg ~read =
  let value data ~offset ~width =
    if offset < 0 || offset + width > Bytes.length data then None
    else
      Some
        (match width with
        | 1 -> Char.code (Bytes.get data offset)
        | 4 -> Int32.to_int (Bytes.get_int32_le data offset) land 0xffffffff
        | 8 -> Int64.to_int (Bytes.get_int64_le data offset)
        | _ -> 0)
  in
  let violated data = function
    | Facts.Check_range { offset; width; lo; hi; _ } -> (
        match value data ~offset ~width with
        | None -> false
        | Some v ->
            Option.fold ~none:false ~some:(fun l -> v < l) lo
            || Option.fold ~none:false ~some:(fun h -> v > h) hi)
    | Facts.Check_len { offset; width; scale; loop; _ } -> (
        match value data ~offset ~width with
        | None -> false
        | Some v ->
            v < 0
            || v * scale < 0
            || v * scale > limits.Paradice.Wire_spec.max_transfer_bytes
            (* Extract.runtime_eval's loop bound *)
            || (loop && v > 65536))
  in
  match Classes.fact_for ~dev_class ~cmd with
  | None -> Paradice.Ioctl_guard.Pass
  | Some hf when hf.Facts.hf_arg_len = 0 -> Paradice.Ioctl_guard.Pass
  | Some hf -> (
      match read ~addr:(Int64.to_int arg) ~len:hf.Facts.hf_arg_len with
      | exception _ -> Paradice.Ioctl_guard.Pass
      | data -> (
          match List.find_opt (violated data) (Facts.checks hf) with
          | None -> Paradice.Ioctl_guard.Pass
          | Some c ->
              Paradice.Ioctl_guard.Reject
                { handler = hf.Facts.hf_name; violated = Facts.check_label c }))

(* The backend checks an ioctl against the facts its file's class
   resolved to at open.  For every analyzed class and the unanalyzed
   null class, every handler command and one unknown command, random
   arguments -- seeded structs, fact violations, wild pointers and
   random words -- get the reference's verdict from the resolved facts
   and from the by-class check. *)
let test_resolved_guard_agrees () =
  let rand = make_rand 23 in
  let compared = ref 0 and rejected = ref 0 in
  List.iter
    (fun cls ->
      let facts = Paradice.Ioctl_guard.resolve ~dev_class:cls in
      List.iter
        (fun cmd ->
          for _ = 1 to 16 do
            let mem, read = make_store () in
            let arg =
              match rand 3 with
              | 0 -> Paradice.Ioctl_guard.Fuzz.seed ~rand mem ~dev_class:cls ~cmd
              | 1 -> Paradice.Ioctl_guard.Fuzz.mutate ~rand ~limits mem ~dev_class:cls ~cmd
              | _ ->
                  let base = mem.Paradice.Ioctl_guard.Fuzz.alloc 256 in
                  for i = 0 to 63 do
                    mem.Paradice.Ioctl_guard.Fuzz.write32 ~addr:(base + (4 * i))
                      (if rand 2 = 0 then rand 16 else rand 0x3FFF_FFFF)
                  done;
                  Int64.of_int base
            in
            let expected = reference_verdict ~dev_class:cls ~cmd ~arg ~read in
            let resolved =
              Paradice.Ioctl_guard.check_resolved facts ~cmd ~arg ~limits ~read
            and by_class = Paradice.Ioctl_guard.check ~dev_class:cls ~cmd ~arg ~limits ~read in
            incr compared;
            (match expected with
            | Paradice.Ioctl_guard.Reject _ -> incr rejected
            | Paradice.Ioctl_guard.Pass -> ());
            if resolved <> expected || by_class <> expected then
              Alcotest.failf "%s %#x arg %Lx: the guard disagrees with the class's facts"
                cls cmd arg
          done)
        (0xdead_beef :: Paradice.Ioctl_guard.Fuzz.cmds ~dev_class:cls))
    ("test" :: List.map fst Classes.all);
  Alcotest.(check bool) "every class compared" true (!compared > 16 * 6);
  Alcotest.(check bool) "some arguments rejected" true (!rejected > 0)

let test_sanitizer_coverage_labels () =
  Paradice.Wire_spec.Coverage.enable ();
  Paradice.Wire_spec.Coverage.reset ();
  let rand = make_rand 3 in
  let mem, read = make_store () in
  let cmd = Devices.Pcm_drv.set_rate_ioctl in
  let arg = Paradice.Ioctl_guard.Fuzz.seed ~rand mem ~dev_class:"audio" ~cmd in
  ignore (Paradice.Ioctl_guard.check ~dev_class:"audio" ~cmd ~arg ~limits ~read);
  mem.Paradice.Ioctl_guard.Fuzz.write32 ~addr:(Int64.to_int arg) 500_000;
  ignore (Paradice.Ioctl_guard.check ~dev_class:"audio" ~cmd ~arg ~limits ~read);
  let snap = Paradice.Wire_spec.Coverage.snapshot () in
  Paradice.Wire_spec.Coverage.disable ();
  let has l = List.mem_assoc l snap in
  Alcotest.(check bool) "pass hits handler label" true (has "handler.audio.pcm_set_rate");
  Alcotest.(check bool) "reject hits sanitize label" true
    (has "sanitize.audio.pcm_set_rate.range:rate")

(* ---- slice-taint precision (the Let-rebinding transfer) ---- *)

let test_taint_killed_by_straightline_rebind () =
  let open Ir in
  (* p is loaded from guest data, then re-bound to a constant before
     the copy that uses it: the only reaching definition is untainted,
     so this is NOT a nested copy any more *)
  let slice =
    [
      Copy_from_user { dst_buf = "req"; src = Arg; len = Const 8 };
      Let ("p", Field { buf = "req"; offset = Const 0; width = 8 });
      Let ("p", Const 0x1000);
      Copy_from_user { dst_buf = "data"; src = Var "p"; len = Const 16 };
    ]
  in
  Alcotest.(check bool) "top-level rebind kills taint" false
    (Slice.has_nested_ops slice)

let test_taint_survives_branch_local_rebind () =
  let open Ir in
  (* the same rebind inside one branch must NOT kill the taint: the
     other path still delivers the guest-controlled binding (the
     documented safe over-approximation keeps branch taint grow-only) *)
  let slice =
    [
      Copy_from_user { dst_buf = "req"; src = Arg; len = Const 8 };
      Let ("p", Field { buf = "req"; offset = Const 0; width = 8 });
      If
        {
          cond = Eq (Var "p", Const 0);
          then_ = [ Let ("p", Const 0x1000) ];
          else_ = [];
        };
      Copy_from_user { dst_buf = "data"; src = Var "p"; len = Const 16 };
    ]
  in
  Alcotest.(check bool) "branch-local rebind keeps taint" true
    (Slice.has_nested_ops slice)

let test_taint_loop_fixpoint () =
  let open Ir in
  (* q only becomes tainted late in iteration k; the use early in
     iteration k+1 must still see it — requires the loop fixpoint *)
  let slice =
    [
      Copy_from_user { dst_buf = "req"; src = Arg; len = Const 8 };
      For
        {
          var = "i";
          count = Const 4;
          body =
            [
              Copy_from_user { dst_buf = "d"; src = Var "q"; len = Const 8 };
              Let ("q", Field { buf = "req"; offset = Const 0; width = 8 });
            ];
        };
    ]
  in
  Alcotest.(check bool) "back-edge taint found by fixpoint" true
    (Slice.has_nested_ops slice)

let test_nested_detection_unchanged () =
  Alcotest.(check bool) "radeon cs still nested" true
    (Slice.has_nested_ops (Slice.of_handler Radeon_ir.cs_handler));
  Alcotest.(check bool) "radeon info still nested" true
    (Slice.has_nested_ops (Slice.of_handler Radeon_ir.info_handler));
  Alcotest.(check bool) "gem_create still flat" false
    (Slice.has_nested_ops (Slice.of_handler Radeon_ir.gem_create_handler))

(* ---- golden fact table (shared with `paradice analyze`) ---- *)

let golden_table =
  String.concat "\n"
    [
      "class    handler                     argB   ptrs nested lines checks";
      "gpu      radeon_gem_create_ioctl       24      0      0     3      0";
      "gpu      radeon_gem_mmap_ioctl         24      0      0     3      0";
      "gpu      drm_gem_close_ioctl            8      0      0     1      0";
      "gpu      radeon_cs_ioctl               24      3      2    12      2";
      "gpu      radeon_info_ioctl             16      1      0     3      0";
      "gpu      radeon_gem_wait_idle_ioctl     8      0      0     1      0";
      "gpu      radeon_gem_set_tiling_ioctl    16      0      0     2      0";
      "gpu      = 7 handlers                          4      2    25      2";
      "input    evdev_ioctl_gid                0      0      0     1      0";
      "input    evdev_ioctl_grep               0      0      0     1      0";
      "input    evdev_ioctl_srep               8      0      0     1      2";
      "input    evdev_ioctl_grab               0      0      0     0      0";
      "input    = 4 handlers                          0      0     3      2";
      "camera   vidioc_reqbufs                 8      0      0     5      2";
      "camera   vidioc_querybuf               16      0      0     5      1";
      "camera   vidioc_qbuf                    8      0      0     1      1";
      "camera   vidioc_dqbuf                   8      0      0     5      1";
      "camera   vidioc_streamon                0      0      0     0      0";
      "camera   vidioc_streamoff               0      0      0     0      0";
      "camera   vidioc_s_fmt                   8      0      0     8      2";
      "camera   = 7 handlers                          0      0    24      7";
      "audio    pcm_set_rate                   8      0      0     1      2";
      "audio    pcm_drain                      0      0      0     0      0";
      "audio    = 2 handlers                          0      0     1      2";
      "net      netmap_regif                  16      0      0     6      1";
      "net      netmap_txsync                  0      0      0     0      0";
      "net      = 2 handlers                          0      0     6      1";
      "";
    ]

let test_golden_table () =
  Alcotest.(check string) "analyze fact table" golden_table
    (Facts.render_table Classes.facts)

let suites =
  [
    ( "facts",
      [
        Alcotest.test_case "class registry" `Quick test_registry;
        Alcotest.test_case "gpu facts" `Quick test_gpu_facts;
        Alcotest.test_case "input facts" `Quick test_input_facts;
        Alcotest.test_case "camera facts" `Quick test_camera_facts;
        Alcotest.test_case "audio facts" `Quick test_audio_facts;
        Alcotest.test_case "net facts" `Quick test_net_facts;
        Alcotest.test_case "every handler extracted" `Quick test_every_handler_extracted;
        Alcotest.test_case "golden fact table" `Quick test_golden_table;
      ] );
    ( "ioctl guard",
      [
        Alcotest.test_case "seeded arguments accepted" `Quick test_sanitizer_accepts_seeded;
        Alcotest.test_case "each violation rejected" `Quick
          test_sanitizer_rejects_each_violation;
        Alcotest.test_case "unknown/unreadable pass through" `Quick
          test_sanitizer_passthrough;
        Alcotest.test_case "coverage labels" `Quick test_sanitizer_coverage_labels;
        Alcotest.test_case "resolved facts agree with the class" `Quick
          test_resolved_guard_agrees;
      ] );
    ( "slice taint",
      [
        Alcotest.test_case "straight-line rebind kills" `Quick
          test_taint_killed_by_straightline_rebind;
        Alcotest.test_case "branch rebind survives" `Quick
          test_taint_survives_branch_local_rebind;
        Alcotest.test_case "loop back-edge fixpoint" `Quick test_taint_loop_fixpoint;
        Alcotest.test_case "radeon classification unchanged" `Quick
          test_nested_detection_unchanged;
      ] );
  ]
