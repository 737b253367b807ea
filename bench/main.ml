(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (run with no arguments for everything), plus
   Bechamel wall-clock microbenchmarks of the implementation's hot
   paths (the [bechamel] entry).  Every entry returns its metrics and
   gates; each is written to BENCH_<name>.json, and the run exits 1
   naming every failed gate. *)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: wall-clock cost of the hot paths          *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  Report.heading "Bechamel microbenchmarks (wall clock, implementation hot paths)";
  let open Bechamel in
  let open Toolkit in
  (* two-level page walk *)
  let walk_test =
    let pt = Memory.Guest_pt.create () and ept = Memory.Ept.create () in
    Memory.Guest_pt.map pt ~gva:0x40000000 ~gpa:0x5000 ~perms:Memory.Perm.rw;
    Memory.Ept.map ept ~gpa:0x5000 ~spa:0x99000 ~perms:Memory.Perm.rwx;
    Test.make ~name:"two-level page walk"
      (Staged.stage (fun () ->
           let gpa = Memory.Guest_pt.translate pt ~gva:0x40000123 ~access:Memory.Perm.Read in
           ignore (Memory.Ept.translate ept ~gpa ~access:Memory.Perm.Read)))
  in
  (* grant declare + authorise + release *)
  let grant_test =
    let phys = Memory.Phys_mem.create () in
    let hyp = Hypervisor.Hyp.create phys in
    let vm =
      Hypervisor.Hyp.create_vm hyp ~name:"g" ~kind:Hypervisor.Vm.Guest
        ~mem_bytes:(1024 * 1024)
    in
    let table = Hypervisor.Hyp.setup_grant_table hyp vm in
    Test.make ~name:"grant declare/authorise/release"
      (Staged.stage (fun () ->
           let r =
             Hypervisor.Grant_table.declare table
               [ Hypervisor.Grant_table.Copy_to_user { addr = 0x1000; len = 64 } ]
           in
           ignore
             (Hypervisor.Grant_table.authorises table ~grant_ref:r
                ~requested:(Hypervisor.Grant_table.Copy_to_user { addr = 0x1010; len = 8 }));
           Hypervisor.Grant_table.release table r))
  in
  (* ioctl op identification: macro vs JIT slice *)
  let analyzer_table = Analyzer.Extract.analyze Analyzer.Radeon_ir.driver_3_2_0 in
  let macro_test =
    Test.make ~name:"ioctl ops: macro decode"
      (Staged.stage (fun () ->
           ignore
             (Analyzer.Cmd_macro.ops_of_cmd Devices.Radeon_ioctl.gem_create ~arg:0x1000)))
  in
  let jit_mem = Bytes.make 4096 '\000' in
  Bytes.set_int32_le jit_mem 0 2l;
  (* num_chunks=2, chunks_ptr=64; two chunk headers with zero-length data *)
  Bytes.set_int64_le jit_mem 8 64L;
  Bytes.set_int64_le jit_mem 64 128L;
  Bytes.set_int64_le jit_mem 72 160L;
  Bytes.set_int32_le jit_mem 128 1l;
  Bytes.set_int32_le jit_mem 160 2l;
  let jit_test =
    Test.make ~name:"ioctl ops: JIT slice (radeon CS)"
      (Staged.stage (fun () ->
           ignore
             (Analyzer.Extract.ops_for analyzer_table ~cmd:Devices.Radeon_ioctl.cs ~arg:0
                ~read_user:(fun ~addr ~len ->
                  if addr + len <= 4096 then Bytes.sub jit_mem addr len
                  else Bytes.make len '\000'))))
  in
  (* spec-derived wire codec: the full descriptor path a backend
     worker pays per op — encode, bounds-checked decode, sanitize *)
  let codec_limits = Paradice.Proto.Fuzz.default_limits in
  let codec_test =
    let req = Paradice.Proto.Rread { vfd = 3; buf = 0x1234; len = 4096 } in
    Test.make ~name:"wire codec: read encode+decode+validate"
      (Staged.stage (fun () ->
           let b = Paradice.Proto.encode_request ~grant_ref:1 ~pid:7 req in
           ignore
             (Paradice.Proto.validate_limits ~limits:codec_limits
                (Paradice.Proto.decode_request b))))
  in
  let codec_batch_test =
    let req =
      Paradice.Proto.Rbatch
        (List.init Paradice.Proto.max_batch_ops (fun i ->
             if i mod 2 = 0 then Paradice.Proto.Rnoop
             else Paradice.Proto.Rread { vfd = 3; buf = 0x1234; len = 64 }))
    in
    Test.make ~name:"wire codec: 32-op batch encode+decode+validate"
      (Staged.stage (fun () ->
           let b = Paradice.Proto.encode_request ~grant_ref:1 ~pid:7 req in
           ignore
             (Paradice.Proto.validate_limits ~limits:codec_limits
                (Paradice.Proto.decode_request b))))
  in
  (* simulation engine event throughput *)
  let engine_test =
    Test.make ~name:"sim engine: 100 timed events"
      (Staged.stage (fun () ->
           let eng = Sim.Engine.create () in
           for i = 1 to 100 do
             Sim.Engine.at eng ~delay:(float_of_int i) (fun () -> ())
           done;
           Sim.Engine.run eng))
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let instances = Instance.[ monotonic_clock ] in
  let tests =
    Test.make_grouped ~name:"hot-paths"
      [
        walk_test; grant_test; macro_test; jit_test; codec_test;
        codec_batch_test; engine_test;
      ]
  in
  let results = Benchmark.all cfg instances tests in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  let metrics =
    Report.rows ~corner:"hot path"
      [
        Report.num ~clock:Wall ~unit:"ns" ~fmt:Report.f1 "ns/op" (function
          | Some (ns :: _) -> ns
          | Some [] | None -> nan);
      ]
      (Hashtbl.fold (fun name r acc -> (name, Analyze.OLS.estimates r) :: acc) ols []
      |> List.sort compare)
  in
  { Obs.Outcome.metrics; gates = [] }

let entries =
  [
    ("noop", Experiments.noop);
    ("fig2", Experiments.fig2);
    ("fig3", Experiments.fig3);
    ("fig4", Experiments.fig4);
    ("fig5", Experiments.fig5);
    ("fig6", Experiments.fig6);
    ("mouse", Experiments.mouse);
    ("camera", Experiments.camera);
    ("audio", Experiments.audio);
    ("table1", Experiments.table1);
    ("table2", Experiments.table2);
    ("table3", Experiments.table3);
    ("analyzer", Experiments.analyzer);
    ("isolation", Experiments.isolation);
    ("ablations", Experiments.ablations);
    ("recovery", Experiments.recovery);
    ("throughput", Experiments.throughput);
    ("memops", Experiments.memops);
    ("trace", Experiments.trace);
    ("containment", Experiments.containment);
    ("upgrade", Experiments.upgrade);
    ("notify", Experiments.notify);
    ("fleet", Experiments.fleet);
    ("bechamel", bechamel);
  ]

let run (name, f) =
  let r = f () in
  let path = Printf.sprintf "BENCH_%s.json" name in
  Obs.Outcome.write ~path ~name ~scale:!Experiments.scale r;
  Printf.eprintf "wrote %s\n%!" path;
  List.map (fun g -> (name, g)) (Obs.Outcome.failed r)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    match args with
    | "--quick" :: rest ->
        Experiments.scale := 0.2;
        rest
    | rest -> rest
  in
  let selected =
    match args with
    | [] ->
        print_endline "Paradice benchmark harness — reproducing every table and figure";
        Printf.printf "(pass experiment names to run a subset: %s;\n --quick shortens runs)\n"
          (String.concat " " (List.map fst entries));
        entries
    | names -> (
        (* check every name before running any, so a typo fails fast *)
        match List.filter (fun n -> not (List.mem_assoc n entries)) names with
        | [] -> List.map (fun n -> (n, List.assoc n entries)) names
        | unknown ->
            List.iter (Printf.eprintf "unknown experiment: %s\n") unknown;
            exit 2)
  in
  match List.concat_map run selected with
  | [] -> ()
  | failed ->
      List.iter
        (fun (name, g) ->
          Printf.eprintf "FAILED gate %s: %s (%s)\n" name g.Obs.Outcome.name
            g.Obs.Outcome.detail)
        failed;
      exit 1
