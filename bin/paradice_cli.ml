(* paradice — command-line driver for the Paradice reproduction.

   Subcommands:
     inspect   boot a full machine and print its topology
     bench     run one workload under a chosen configuration
     trace     run a traced workload, export Chrome trace-event JSON
     fleet     run the sharded fleet workload across parallel shards
     analyze   print per-class ioctl interface facts + the Radeon table
     versions  compare file-operation vocabularies across kernels *)

open Cmdliner

(* ---- shared options ---- *)

let mode_conv =
  let parse = function
    | "native" -> Ok Baselines.Setup.Native
    | "da" | "device-assign" -> Ok Baselines.Setup.Device_assign
    | "paradice" -> Ok (Baselines.Setup.Paradice Paradice.Config.default)
    | "paradice-polling" | "polling" ->
        Ok (Baselines.Setup.Paradice Paradice.Config.polling)
    | "paradice-di" | "di" ->
        Ok
          (Baselines.Setup.Paradice
             (Paradice.Config.with_data_isolation Paradice.Config.default))
    | "paradice-freebsd" | "freebsd" ->
        Ok (Baselines.Setup.Paradice_freebsd Paradice.Config.default)
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print ppf m = Fmt.string ppf (Baselines.Setup.mode_label m) in
  Arg.conv (parse, print)

let mode =
  Arg.(
    value
    & opt mode_conv (Baselines.Setup.Paradice Paradice.Config.default)
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:
          "Configuration: native, da, paradice, paradice-polling, paradice-di, \
           paradice-freebsd.")

(* ---- inspect ---- *)

let inspect () =
  let machine = Paradice.Machine.create () in
  ignore (Paradice.Machine.attach_gpu machine);
  ignore (Paradice.Machine.attach_mouse machine);
  ignore (Paradice.Machine.attach_keyboard machine);
  ignore (Paradice.Machine.attach_camera machine ());
  ignore (Paradice.Machine.attach_audio machine);
  ignore (Paradice.Machine.attach_netmap machine);
  let g1 = Paradice.Machine.add_guest machine ~name:"linux-guest" () in
  let g2 =
    Paradice.Machine.add_guest machine ~name:"freebsd-guest"
      ~flavor:Oskit.Os_flavor.Freebsd_9 ()
  in
  Printf.printf "driver VM: %s\n"
    (Oskit.Os_flavor.name (Oskit.Kernel.flavor (Paradice.Machine.driver_kernel machine)));
  Printf.printf "devices in the driver VM:\n";
  List.iter
    (fun d ->
      Printf.printf "  %-20s class=%-7s driver=%s%s\n" d.Oskit.Defs.dev_path
        d.Oskit.Defs.dev_class d.Oskit.Defs.driver_name
        (if d.Oskit.Defs.exclusive then " (single-open)" else ""))
    (Oskit.Devfs.list (Oskit.Kernel.devfs (Paradice.Machine.driver_kernel machine)));
  List.iter
    (fun (g : Paradice.Machine.guest) ->
      Printf.printf "\nguest %S (%s):\n"
        (Hypervisor.Vm.name g.Paradice.Machine.vm)
        (Oskit.Os_flavor.name (Oskit.Kernel.flavor g.Paradice.Machine.kernel));
      Printf.printf "  virtual device files:\n";
      List.iter
        (fun d -> Printf.printf "    %-20s driver=%s\n" d.Oskit.Defs.dev_path d.Oskit.Defs.driver_name)
        (Oskit.Devfs.list (Oskit.Kernel.devfs g.Paradice.Machine.kernel));
      Printf.printf "  virtual PCI bus:\n";
      List.iter
        (fun d -> Format.printf "    %a@." Paradice.Virt_pci.pp_dev d)
        (Paradice.Virt_pci.list g.Paradice.Machine.pci);
      Printf.printf "  sysfs (device info modules):\n";
      List.iter
        (fun (k, v) -> Printf.printf "    %s = %s\n" k v)
        (Oskit.Devfs.sysfs_entries (Oskit.Kernel.devfs g.Paradice.Machine.kernel)))
    [ g1; g2 ];
  Printf.printf "\nhypervisor: %d VMs, validation %b\n"
    (List.length (Hypervisor.Hyp.vms (Paradice.Machine.hyp machine)))
    true;
  `Ok ()

(* ---- bench ---- *)

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"noop | netmap | gfx | matmul | mouse | camera | audio")

let batch = Arg.(value & opt int 64 & info [ "batch" ] ~doc:"netmap batch size")
let packets = Arg.(value & opt int 20_000 & info [ "packets" ] ~doc:"netmap packet count")
let order = Arg.(value & opt int 100 & info [ "order" ] ~doc:"matmul matrix order")
let frames = Arg.(value & opt int 60 & info [ "frames" ] ~doc:"frames to render/capture")

let bench workload mode batch packets order frames =
  let devices =
    match workload with
    | "noop" -> [ Baselines.Setup.Null ]
    | "netmap" -> [ Baselines.Setup.Netmap ]
    | "gfx" | "matmul" -> [ Baselines.Setup.Gpu ]
    | "mouse" -> [ Baselines.Setup.Mouse ]
    | "camera" -> [ Baselines.Setup.Camera ]
    | "audio" -> [ Baselines.Setup.Audio ]
    | w -> failwith ("unknown workload: " ^ w)
  in
  let _machine, env = Baselines.Setup.make ~devices mode in
  Printf.printf "%s under %s:\n" workload env.Workloads.Runner.label;
  (match workload with
  | "noop" ->
      let avg = Workloads.Noop_bench.run env ~ops:2000 () in
      Printf.printf "  no-op file operation: %.2f us\n" avg
  | "netmap" ->
      let r = Workloads.Netmap_pktgen.run env ~packets ~batch in
      Printf.printf "  TX rate at batch %d: %.3f Mpps (%d packets in %.3fs)\n" batch
        r.Workloads.Netmap_pktgen.rate_mpps r.Workloads.Netmap_pktgen.packets
        r.Workloads.Netmap_pktgen.elapsed_s
  | "gfx" ->
      let fps =
        Workloads.Gfx.run env ~profile:Workloads.Gfx.tremulous ~width:1024 ~height:768
          ~frames ()
      in
      Printf.printf "  Tremulous @1024x768: %.1f FPS\n" fps
  | "matmul" ->
      let t = Workloads.Opencl_matmul.run env ~order () in
      Printf.printf "  order %d: %.3f s\n" order t
  | "mouse" ->
      let l = Workloads.Mouse_latency.run env ~moves:50 () in
      Printf.printf "  event-to-read latency: %.1f us\n" l
  | "camera" ->
      let fps = Workloads.Camera_app.run env ~width:1280 ~height:720 ~frames () in
      Printf.printf "  capture rate @1280x720: %.1f FPS\n" fps
  | "audio" ->
      let t = Workloads.Audio_app.run env ~seconds:1.0 () in
      Printf.printf "  1.0s file played in %.3f s\n" t
  | _ -> ());
  `Ok ()

(* ---- trace ---- *)

let trace_out =
  Arg.(
    value
    & opt string "paradice_trace.json"
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Chrome trace-event JSON output path (load at ui.perfetto.dev).")

let trace_workload =
  Arg.(value & pos 0 string "noop" & info [] ~docv:"WORKLOAD" ~doc:"noop | netmap")

let trace_ops =
  Arg.(value & opt int 200 & info [ "ops" ] ~doc:"noop operation count")

let trace workload out ops packets batch =
  let tracer = Obs.Trace.create () in
  let config = { Paradice.Config.default with Paradice.Config.tracer } in
  let devices =
    match workload with
    | "noop" -> [ Baselines.Setup.Null ]
    | "netmap" -> [ Baselines.Setup.Netmap ]
    | w -> failwith ("trace supports noop | netmap, not " ^ w)
  in
  let machine, env =
    Baselines.Setup.make ~devices (Baselines.Setup.Paradice config)
  in
  (match workload with
  | "noop" -> ignore (Workloads.Noop_bench.run env ~ops ())
  | "netmap" -> ignore (Workloads.Netmap_pktgen.run env ~packets ~batch)
  | _ -> ());
  let spans = List.length (Obs.Trace.completed tracer) in
  let r = Obs.Trace.reconcile tracer in
  let oc = open_out out in
  output_string oc (Obs.Trace.to_chrome_json tracer);
  close_out oc;
  Printf.printf
    "traced %s: %d spans, %d ops reconciled, max stage-sum gap %.3f us\n"
    workload spans r.Obs.Trace.r_ops r.Obs.Trace.r_max_gap_us;
  Printf.printf "wrote %s -- open it at https://ui.perfetto.dev\n\n" out;
  Printf.printf "per-stage latency histograms (simulated us):\n";
  List.iter
    (fun (name, h) ->
      Printf.printf "  %-22s n=%-6d mean=%9.2f p95=%9.2f\n" name
        (Sim.Stats.count h) (Sim.Stats.mean h) (Sim.Stats.percentile h 95.))
    (Obs.Trace.histograms tracer);
  let guest = List.hd (Paradice.Machine.guests machine) in
  let _, _, stats = Paradice.Cvd_front.stats guest.Paradice.Machine.frontend in
  (match Paradice.Chan_pool.signal_counts stats with
  | [] -> ()
  | cs ->
      Printf.printf "counters:\n";
      List.iter (fun (name, v) -> Printf.printf "  %-22s %d\n" name v) cs);
  `Ok ()

(* ---- fleet ---- *)

let fleet_shards =
  Arg.(value & opt int 4 & info [ "shards" ] ~doc:"driver-VM shard count")

let fleet_guests =
  Arg.(value & opt int 64 & info [ "guests" ] ~doc:"guest links across the fleet")

let fleet_ops =
  Arg.(value & opt int 8 & info [ "ops" ] ~doc:"operations per guest")

let fleet_seed =
  Arg.(
    value
    & opt int 0xF1EE7
    & info [ "seed" ] ~doc:"master seed (per-shard streams derived from it)")

let fleet_alpha =
  Arg.(
    value
    & opt float 0.
    & info [ "zipf" ] ~docv:"ALPHA"
        ~doc:"Zipf skew over the global guest index (0 = uniform load).")

let fleet_domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domains to run shards on (default: min shards (recommended \
           domain count)).  Simulated results are identical for any N.")

let fleet shards guests ops seed alpha domains =
  if shards < 1 then failwith "fleet: need at least one shard";
  if guests < shards then failwith "fleet: need at least one guest per shard";
  let module FL = Workloads.Fleet_load in
  let ops_per_guest =
    if alpha > 0. then FL.zipf_ops ~guests ~base:ops ~alpha
    else FL.uniform_ops ~guests ~base:ops
  in
  let specs = FL.make_specs ~shards ~seed:(Int64.of_int seed) ~ops:ops_per_guest () in
  let t0 = Unix.gettimeofday () in
  let results = FL.run_fleet ?domains specs in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "fleet: %d guest links over %d shard(s), %s load, seed %#x\n\n"
    guests shards
    (if alpha > 0. then Printf.sprintf "zipf(%.2f)" alpha else "uniform")
    seed;
  Printf.printf "  shard  links  ok      errs  sim end us  digest\n";
  Array.iter
    (fun r ->
      Printf.printf "  %-5d  %-5d  %-6d  %-4d  %-10.1f  %016Lx\n" r.FL.r_shard
        (List.length r.FL.r_guests) r.FL.r_ok r.FL.r_err r.FL.r_sim_end_us
        r.FL.r_digest)
    results;
  let pooled = Sim.Stats.create "fleet.lat_us" in
  List.iter
    (fun (g : FL.guest_result) -> Sim.Stats.merge_into ~into:pooled g.FL.g_lat)
    (FL.all_guests results);
  let total_ok = Array.fold_left (fun a r -> a + r.FL.r_ok) 0 results in
  let total_err = Array.fold_left (fun a r -> a + r.FL.r_err) 0 results in
  Printf.printf
    "\n  total: %d ok, %d errs in %.2fs wall (%.0f ops/s aggregate)\n" total_ok
    total_err wall
    (float_of_int total_ok /. Float.max wall 1e-9);
  Printf.printf "  latency us: p50 %.1f  p99 %.1f  p999 %.1f  max %.1f\n"
    (Sim.Stats.percentile pooled 50.)
    (Sim.Stats.p99 pooled) (Sim.Stats.p999 pooled) (Sim.Stats.max_value pooled);
  Printf.printf "  per-guest mean-latency spread: %.2fx (1.0 = fair)\n"
    (FL.fairness results);
  `Ok ()

(* ---- analyze ---- *)

let analyze () =
  print_string (Analyzer.Facts.render_table Analyzer.Classes.facts);
  print_newline ();
  let table = Analyzer.Extract.analyze Analyzer.Radeon_ir.driver_3_2_0 in
  Printf.printf "radeon %s: %d static, %d JIT handlers; %d extracted lines\n\n"
    table.Analyzer.Extract.version table.Analyzer.Extract.static_count
    table.Analyzer.Extract.jit_count table.Analyzer.Extract.extracted_lines;
  List.iter
    (fun (name, cmd) ->
      let kind =
        match Analyzer.Extract.entry_for table cmd with
        | Some (Analyzer.Extract.Static protos) ->
            Printf.sprintf "static (%d ops)" (List.length protos)
        | Some (Analyzer.Extract.Jit slice) ->
            Printf.sprintf "JIT slice (%d stmts%s)" (Analyzer.Ir.stmt_count slice)
              (if Analyzer.Slice.has_nested_ops slice then ", nested copies" else "")
        | None -> "not in table (macro fallback)"
      in
      let cmd_str = Format.asprintf "%a" Oskit.Ioctl_num.pp cmd in
      Printf.printf "  %-14s %-28s %s\n" name cmd_str kind)
    Devices.Radeon_ioctl.all_commands;
  `Ok ()

(* ---- versions ---- *)

let versions () =
  List.iter
    (fun flavor ->
      Printf.printf "%s: %d file operations known\n" (Oskit.Os_flavor.name flavor)
        (List.length (Oskit.Os_flavor.supported_ops flavor));
      Printf.printf "  %s\n"
        (String.concat ", "
           (List.map Oskit.Os_flavor.op_kind_name (Oskit.Os_flavor.supported_ops flavor))))
    [ Oskit.Os_flavor.Linux_2_6_35; Oskit.Os_flavor.Linux_3_2_0; Oskit.Os_flavor.Freebsd_9 ];
  Printf.printf "\ndriver-core operations (identical semantics everywhere): %s\n"
    (String.concat ", " (List.map Oskit.Os_flavor.op_kind_name Oskit.Os_flavor.driver_core_ops));
  `Ok ()

(* ---- command wiring ---- *)

let inspect_cmd =
  Cmd.v (Cmd.info "inspect" ~doc:"Boot a full machine and print its topology")
    Term.(ret (const inspect $ const ()))

let bench_cmd =
  Cmd.v (Cmd.info "bench" ~doc:"Run one workload under a chosen configuration")
    Term.(ret (const bench $ workload_arg $ mode $ batch $ packets $ order $ frames))

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced workload and export a Chrome trace-event JSON \
          (Perfetto-loadable) plus per-stage latency histograms")
    Term.(ret (const trace $ trace_workload $ trace_out $ trace_ops $ packets $ batch))

let fleet_cmd =
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run the sharded fleet workload: parallel driver-VM shards with \
          deterministic per-shard streams, aggregate tail latency and \
          fairness")
    Term.(
      ret
        (const fleet $ fleet_shards $ fleet_guests $ fleet_ops $ fleet_seed
       $ fleet_alpha $ fleet_domains))

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Print the analyzer's per-class ioctl interface facts (pointer, \
          length, index and range fields; generated checks) and the Radeon \
          static/JIT table")
    Term.(ret (const analyze $ const ()))

let versions_cmd =
  Cmd.v (Cmd.info "versions" ~doc:"Compare kernel file-operation vocabularies")
    Term.(ret (const versions $ const ()))

let () =
  let doc = "Paradice: I/O paravirtualization at the device file boundary" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "paradice" ~version:Paradice.Api.version ~doc)
          [ inspect_cmd; bench_cmd; trace_cmd; fleet_cmd; analyze_cmd; versions_cmd ]))
