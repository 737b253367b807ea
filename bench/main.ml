(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (run with no arguments for everything).  Every
   entry returns its metrics and gates; each is written to
   BENCH_<name>.json, and the run exits 1 naming every failed gate.
   Wall-clock costs of the implementation's hot paths are perfbench's
   per-layer rows. *)

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
