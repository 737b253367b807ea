(* Every table and figure of the paper's evaluation (§6), regenerated
   against the simulated substrate.  Absolute numbers come from the
   calibrated cost model (see Paradice.Config and DESIGN.md); the
   comparisons and crossovers are the reproduced result.  Each
   experiment returns an [Obs.Outcome.t]: the metrics behind its
   printed numbers and the gates behind its acceptance claims. *)

open Baselines
module O = Obs.Outcome

(* scale factor: CLI can shrink run lengths for quick smoke runs *)
let scale = ref 1.0

let scaled n = max 1 (int_of_float (float_of_int n *. !scale))
let outcome ?(gates = []) metrics = { O.metrics; gates }
let modes = Report.labelled Setup.mode_label
let ints = Report.labelled string_of_int
let resolutions = Report.labelled (fun (w, h) -> Printf.sprintf "%dx%d" w h)
let one col = [ (col, ()) ]

(* The transport counts of a one-guest setup's channel pool. *)
let pool_stats machine =
  Paradice.Chan_pool.stats
    (List.hd (Paradice.Machine.guests machine)).Paradice.Machine.link.Paradice.Cvd_back.pool

(* Native, device assignment and Paradice with interrupts, then [extra]
   Paradice configurations: the columns most of §6 compares. *)
let native_da_paradice extra =
  modes
    ([ Setup.Native; Setup.Device_assign; Setup.Paradice Paradice.Config.default ]
    @ List.map (fun c -> Setup.Paradice c) extra)

let with_polling = native_da_paradice [ Paradice.Config.polling ]

let with_di =
  native_da_paradice [ Paradice.Config.with_data_isolation Paradice.Config.default ]

(* ------------------------------------------------------------------ *)
(* §6.1.1: no-op file operation latency                                *)
(* ------------------------------------------------------------------ *)

let noop () =
  Report.heading "§6.1.1 — No-op file operation latency";
  let metrics =
    Report.grid ~corner:"config" ~unit:"us" ~cols:(one "added latency (us/op)") with_polling
      (fun mode () ->
        let _machine, env = Setup.make ~devices:[ Setup.Null ] mode in
        Workloads.Noop_bench.run env ~ops:(scaled 2000) ())
  in
  Report.note "paper: ~35us with interrupts (two inter-VM interrupts), ~2us with polling";
  outcome metrics

(* ------------------------------------------------------------------ *)
(* Figure 2: netmap transmit rate vs batch size                        *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  Report.heading "Figure 2 — netmap TX rate (Mpps), 64-byte packets";
  let packets = scaled 20_000 in
  let metrics =
    Report.grid ~corner:"batch" ~unit:"Mpps" ~fmt:Report.f3
      ~cols:
        (modes
           [
             Setup.Native; Setup.Device_assign;
             Setup.Paradice Paradice.Config.default;
             Setup.Paradice_freebsd Paradice.Config.default;
             Setup.Paradice Paradice.Config.polling;
           ])
      (ints [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ])
      (fun batch mode ->
        let _m, env = Setup.make ~devices:[ Setup.Netmap ] mode in
        (Workloads.Netmap_pktgen.run env ~packets ~batch).Workloads.Netmap_pktgen.rate_mpps)
  in
  Report.note "line rate at 64B on 1GbE = 1.488 Mpps";
  Report.note
    "paper: native/DA at line rate from small batches; Paradice(P) joins at batch >= 4;";
  Report.note
    "       Paradice with interrupts needs batch ~30-64; FreeBSD guest ~= Linux guest";
  outcome metrics

(* ------------------------------------------------------------------ *)
(* Figure 3: OpenGL microbenchmarks                                    *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  Report.heading "Figure 3 — OpenGL benchmarks (FPS, fullscreen teapot)";
  let frames = scaled 60 in
  let metrics =
    Report.grid ~corner:"benchmark" ~unit:"fps" ~fmt:Report.f1 ~cols:with_polling
      (Report.labelled (fun p -> p.Workloads.Gfx.name) Workloads.Gfx.opengl_benchmarks)
      (fun profile mode ->
        let _m, env = Setup.make ~devices:[ Setup.Gpu ] mode in
        Workloads.Gfx.run env ~profile ~width:1024 ~height:768 ~frames ())
  in
  Report.note
    "paper: Paradice(interrupts) visibly below native on these cheap frames;";
  Report.note "       Paradice(P) closes the gap to native";
  outcome metrics

(* ------------------------------------------------------------------ *)
(* Figure 4: 3D games at four resolutions                              *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  Report.heading "Figure 4 — 3D HD games (FPS) at different resolutions";
  let frames = scaled 40 in
  let metrics =
    List.concat_map
      (fun game ->
        let name = game.Workloads.Gfx.name in
        Printf.printf "\n  -- %s --\n" name;
        Report.grid ~prefix:name ~corner:"resolution" ~unit:"fps" ~fmt:Report.f1
          ~cols:with_di (resolutions Workloads.Gfx.resolutions)
          (fun (width, height) mode ->
            let _m, env = Setup.make ~devices:[ Setup.Gpu ] mode in
            Workloads.Gfx.run env ~profile:game ~width ~height ~frames ()))
      Workloads.Gfx.games
  in
  Report.note "paper: Paradice close to native for demanding games;";
  Report.note "       data isolation (DI) has no noticeable impact";
  outcome metrics

(* ------------------------------------------------------------------ *)
(* Figure 5: OpenCL matrix multiplication                              *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  Report.heading "Figure 5 — OpenCL matmul experiment time (seconds)";
  let metrics =
    Report.grid ~corner:"matrix order" ~unit:"s" ~cols:with_di (ints [ 1; 100; 500; 1000 ])
      (fun order mode ->
        let _m, env = Setup.make ~devices:[ Setup.Gpu ] mode in
        Workloads.Opencl_matmul.run env ~order ())
  in
  Report.note "paper (log-log plot): all four configurations nearly identical;";
  Report.note "       experiment time dominated by the GPU itself at large orders";
  outcome metrics

(* ------------------------------------------------------------------ *)
(* Figure 6: concurrent guests on one GPU                              *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  Report.heading "Figure 6 — concurrent OpenCL (order 500) across guest VMs";
  let reps = scaled 5 in
  let run n_guests =
    let machine, _env =
      Setup.make ~devices:[ Setup.Gpu ] ~extra_guests:(n_guests - 1)
        (Setup.Paradice Paradice.Config.default)
    in
    let guests = Paradice.Machine.guests machine in
    Workloads.Opencl_matmul.run_concurrent machine ~guests ~order:500 ~reps
  in
  let metrics =
    Report.grid ~corner:"# guest VMs" ~unit:"s"
      ~fmt:(fun t -> if Float.is_nan t then "-" else Report.f2 t)
      ~cols:[ ("VM1 (s)", 0); ("VM2 (s)", 1); ("VM3 (s)", 2) ]
      (List.map (fun n -> (string_of_int n, run n)) [ 1; 2; 3 ])
      (fun times vm -> if vm < Array.length times then times.(vm) else nan)
  in
  Report.note "paper: experiment time grows ~linearly with the number of guests";
  Report.note "       (the GPU's processing time is shared)";
  outcome metrics

(* ------------------------------------------------------------------ *)
(* §6.1.5: mouse latency                                               *)
(* ------------------------------------------------------------------ *)

let mouse () =
  Report.heading "§6.1.5 — Mouse latency (event reported -> read reaches driver)";
  let metrics =
    Report.grid ~corner:"config" ~unit:"us" ~fmt:Report.f1 ~cols:(one "latency (us)")
      with_polling
      (fun mode () ->
        let _m, env = Setup.make ~devices:[ Setup.Mouse ] mode in
        Workloads.Mouse_latency.run env ~moves:(scaled 50) ())
  in
  Report.note "paper: native 39us, device assignment 55us,";
  Report.note "       Paradice 296us (interrupts), 179us (polling) -- all << 1ms";
  outcome metrics

(* ------------------------------------------------------------------ *)
(* §6.1.6: camera and speaker                                          *)
(* ------------------------------------------------------------------ *)

let camera () =
  Report.heading "§6.1.6 — Camera capture rate (FPS, MJPG)";
  let metrics =
    Report.grid ~corner:"resolution" ~unit:"fps" ~fmt:Report.f1
      ~cols:(native_da_paradice [])
      (resolutions [ (1280, 720); (1600, 896); (1920, 1080) ])
      (fun (width, height) mode ->
        let _m, env = Setup.make ~devices:[ Setup.Camera ] mode in
        Workloads.Camera_app.run env ~width ~height ~frames:(scaled 20) ())
  in
  Report.note "paper: ~29.5 FPS at every resolution for all configurations";
  outcome metrics

let audio () =
  Report.heading "§6.1.6 — Audio playback time (1.0 s PCM file)";
  let metrics =
    Report.grid ~corner:"config" ~unit:"s" ~fmt:Report.f3 ~cols:(one "playback time (s)")
      (native_da_paradice [])
      (fun mode () ->
        let _m, env = Setup.make ~devices:[ Setup.Audio ] mode in
        Workloads.Audio_app.run env ~seconds:1.0 ())
  in
  Report.note "paper: all configurations take the same time (same audio rate)";
  outcome metrics

(* ------------------------------------------------------------------ *)
(* Table 1: devices paravirtualized                                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Report.heading "Table 1 — I/O devices paravirtualized by this prototype";
  Report.table
    ~header:[ "class"; "device model"; "driver"; "class-specific module" ]
    [
      [ "GPU"; "Radeon HD 6450 (Evergreen model)"; "DRM/Radeon"; "Device_info.gpu" ];
      [ "Input"; "Dell USB Mouse"; "evdev/usbmouse"; "Device_info.input" ];
      [ "Input"; "Dell USB Keyboard"; "evdev/usbkbd"; "Device_info.input" ];
      [ "Camera"; "Logitech HD Pro Webcam C920"; "V4L2/UVC"; "Device_info.camera" ];
      [ "Audio"; "Intel Panther Point HD Audio"; "PCM/snd-hda-intel"; "Device_info.audio" ];
      [ "Ethernet"; "Intel Gigabit (netmap)"; "netmap/e1000e"; "Device_info.ethernet" ];
    ];
  Report.note "paper: 5 classes, ~900 class-specific LoC of ~7700 total";
  Report.note "       (~400 of the class-specific lines are GPU data isolation)";
  outcome []

(* ------------------------------------------------------------------ *)
(* Table 2: code breakdown, measured from this repository              *)
(* ------------------------------------------------------------------ *)

let count_loc dir =
  (* non-blank, non-comment-only lines of .ml files under [dir] *)
  let rec files d =
    if Sys.is_directory d then
      Sys.readdir d |> Array.to_list
      |> List.concat_map (fun f -> files (Filename.concat d f))
    else if Filename.check_suffix d ".ml" then [ d ]
    else []
  in
  List.fold_left
    (fun acc file ->
      let ic = open_in file in
      let n = ref 0 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if
             String.length line > 0
             && not (String.length line >= 2 && String.sub line 0 2 = "(*")
           then incr n
         done
       with End_of_file -> ());
      close_in ic;
      acc + !n)
    0 (files dir)

let table2 () =
  Report.heading "Table 2 — code breakdown (this repository, measured)";
  let root = "lib" in
  let metrics =
    if Sys.file_exists root && Sys.is_directory root then
      Report.rows ~corner:"component"
        [ Report.text "directory" Fun.id; Report.int "LoC" count_loc ]
        [
          ("CVD + machine (generic)", "lib/core");
          ("Hypervisor (generic)", "lib/hypervisor");
          ("Memory virtualization (generic)", "lib/memory");
          ("Kernel substrate (generic)", "lib/oskit");
          ("Simulation engine (generic)", "lib/sim");
          ("ioctl analyzer (generic)", "lib/analyzer");
          ("Device models + drivers", "lib/devices");
          ("Baselines", "lib/baselines");
          ("Workloads", "lib/workloads");
        ]
    else begin
      Report.note "run from the repository root to measure LoC";
      []
    end
  in
  Report.note "paper: 7700 LoC total, 6833 generic, ~900 class-specific";
  outcome metrics

(* ------------------------------------------------------------------ *)
(* Table 3: I/O virtualization strategies                              *)
(* ------------------------------------------------------------------ *)

let table3 () =
  Report.heading "Table 3 — comparing I/O virtualization solutions";
  (* measured no-op latency per strategy, where implemented *)
  let direct_lat =
    let _m, env = Setup.make ~devices:[ Setup.Null ] Setup.Device_assign in
    Workloads.Noop_bench.run env ~ops:(scaled 1000) ()
  in
  let paradice_lat =
    let _m, env =
      Setup.make ~devices:[ Setup.Null ] (Setup.Paradice Paradice.Config.default)
    in
    Workloads.Noop_bench.run env ~ops:(scaled 1000) ()
  in
  let emu = Emulation.make () in
  let emu_lat = Workloads.Noop_bench.run (Emulation.env emu) ~ops:(scaled 1000) () in
  let sv = Self_virt.make () in
  let (_ : string) = Self_virt.assign_vf sv in
  let sv_env = Self_virt.env sv in
  let sv_lat =
    (* the VF device registers under its own path *)
    Workloads.Runner.run_to_completion sv_env (fun () ->
        let task = Workloads.Runner.spawn_app sv_env ~name:"noop" in
        let fd = Workloads.Runner.openf sv_env task "/dev/null-vf1" in
        let t0 = Workloads.Runner.now_us sv_env in
        let n = scaled 1000 in
        for _ = 1 to n do
          ignore
            (Workloads.Runner.ioctl sv_env task fd ~cmd:Paradice.Machine.null_ioctl ~arg:0L)
        done;
        (Workloads.Runner.now_us sv_env -. t0) /. float_of_int n)
  in
  let measured =
    [
      ("Emulation", emu_lat); ("Direct I/O", direct_lat); ("Self Virt.", sv_lat);
      ("Paradice", paradice_lat);
    ]
  in
  let rows =
    List.map
      (fun (c : Strategy.capabilities) ->
        [
          c.Strategy.strategy;
          Strategy.yesno c.Strategy.high_performance;
          Strategy.yesno c.Strategy.low_development_effort;
          Strategy.sharing_string c.Strategy.device_sharing;
          Strategy.yesno c.Strategy.legacy_devices;
          Option.fold ~none:"-" ~some:Report.f1
            (List.assoc_opt c.Strategy.strategy measured);
        ])
      Strategy.all
  in
  Report.table
    ~header:
      [ "strategy"; "high perf"; "low dev effort"; "sharing"; "legacy"; "noop us (measured)" ]
    rows;
  Report.note "capability columns as in the paper's Table 3; latency measured here";
  outcome (List.map (fun (s, us) -> Report.sim ~unit:"us" s us) measured)

(* ------------------------------------------------------------------ *)
(* §4.1 / §5.3: the static analyzer                                    *)
(* ------------------------------------------------------------------ *)

let analyzer () =
  Report.heading "§4.1 — ioctl analyzer over the Radeon driver IR";
  let module E = Analyzer.Extract in
  let t_new = E.analyze Analyzer.Radeon_ir.driver_3_2_0 in
  let t_old = E.analyze Analyzer.Radeon_ir.driver_2_6_35 in
  let metrics =
    Report.rows ~corner:"metric"
      [
        Report.int "2.6.35" (fun (f, _) -> f t_old);
        Report.int "3.2.0" (fun (f, _) -> f t_new);
        Report.text "paper (3.2)" snd;
      ]
      [
        ("handlers analyzed", ((fun t -> t.E.static_count + t.E.jit_count), "many"));
        ("static entries", ((fun t -> t.E.static_count), "-"));
        ("JIT (nested-copy) commands", ((fun t -> List.length (E.nested_cmds t)), "14"));
        ("extracted slice lines", ((fun t -> t.E.extracted_lines), "~760"));
      ]
  in
  let stable =
    List.for_all
      (fun (h : Analyzer.Ir.handler) ->
        E.entry_for t_old h.Analyzer.Ir.cmd = E.entry_for t_new h.Analyzer.Ir.cmd)
      Analyzer.Radeon_ir.driver_2_6_35.Analyzer.Ir.handlers
  in
  Report.note "memory operations of common commands identical across versions: %b" stable;
  Report.note "paper: identical across 2.6.35 -> 3.2.0; four new commands to analyze";
  outcome metrics
    ~gates:
      [
        O.gate "common commands' memory operations identical across versions" stable
          (string_of_bool stable);
      ]

(* ------------------------------------------------------------------ *)
(* Isolation demonstration + overhead                                  *)
(* ------------------------------------------------------------------ *)

let isolation () =
  Report.heading "§6 — isolation: attacks blocked, overhead measured";
  (* grant validation overhead on an ioctl with real memory operations
     (INFO: one copy in, one nested copy out) — checks on vs off *)
  let measure_info cfg =
    let _m, env = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice cfg) in
    Workloads.Runner.run_to_completion env (fun () ->
        let task = Workloads.Runner.spawn_app env ~name:"bench" in
        let fd = Workloads.Gem.open_gpu env task in
        ignore (Workloads.Gem.query_info env task fd ~request:Devices.Radeon_ioctl.info_device_id);
        let n = scaled 500 in
        let t0 = Workloads.Runner.now_us env in
        for _ = 1 to n do
          ignore
            (Workloads.Gem.query_info env task fd
               ~request:Devices.Radeon_ioctl.info_device_id)
        done;
        (Workloads.Runner.now_us env -. t0) /. float_of_int n)
  in
  let overhead =
    Report.grid ~corner:"configuration" ~unit:"us" ~cols:(one "INFO ioctl latency (us)")
      [
        ("fault-isolation checks ON", Paradice.Config.default);
        ( "fault-isolation checks OFF (ablation)",
          { Paradice.Config.default with Paradice.Config.validate_grants = false } );
      ]
      (fun cfg () -> measure_info cfg)
  in
  (* attack suite against a data-isolated two-guest GPU machine *)
  let machine, _env =
    Setup.make ~devices:[ Setup.Gpu ] ~extra_guests:1
      (Setup.Paradice (Paradice.Config.with_data_isolation Paradice.Config.default))
  in
  let hyp = Paradice.Machine.hyp machine in
  let driver_vm = Oskit.Kernel.vm (Paradice.Machine.driver_kernel machine) in
  let guests = Paradice.Machine.guests machine in
  let g1 = List.nth guests 0 in
  let att = Option.get machine.Paradice.Machine.gpu in
  let mgr = Option.get att.Paradice.Machine.isolation in
  let outcomes = ref [] in
  let attack name f = outcomes := (name, f () = `Blocked) :: !outcomes in
  attack "driver VM reads protected pool page" (fun () ->
      let spa = Hypervisor.Region.alloc_protected_page mgr ~rid:0 in
      let gpas = Memory.Ept.gpas_of_spn (Hypervisor.Vm.ept driver_vm) (Memory.Addr.pfn spa) in
      if
        List.for_all
          (fun gpa ->
            match
              Hypervisor.Vm.read driver_vm ~pt:Hypervisor.Vm.no_pt ~addr:gpa ~len:8
            with
            | _ -> false
            | exception Memory.Fault.Ept_violation _ -> true)
          gpas
        && gpas <> []
      then `Blocked
      else `Succeeded);
  attack "driver VM reads VRAM" (fun () ->
      let gpas =
        Memory.Ept.gpas_of_spn (Hypervisor.Vm.ept driver_vm)
          (Memory.Addr.pfn (Devices.Gpu_hw.vram_base att.Paradice.Machine.gpu))
      in
      if
        gpas <> []
        && List.for_all
             (fun gpa ->
               match
                 Hypervisor.Vm.read driver_vm ~pt:Hypervisor.Vm.no_pt ~addr:gpa ~len:8
               with
               | _ -> false
               | exception Memory.Fault.Ept_violation _ -> true)
             gpas
      then `Blocked
      else `Succeeded);
  attack "IOMMU mapping of another region's page" (fun () ->
      let spa = Hypervisor.Region.alloc_protected_page mgr ~rid:0 in
      match
        Hypervisor.Region.request_iommu_map mgr ~rid:1 ~dma:0x7000000 ~spa
          ~perms:Memory.Perm.rw
      with
      | () -> `Succeeded
      | exception Hypervisor.Region.Isolation_violation _ -> `Blocked);
  attack "GPU access outside its memory-controller bounds" (fun () ->
      let gpu = att.Paradice.Machine.gpu in
      let before = List.length (Devices.Gpu_hw.faults gpu) in
      let (_ : int) = Hypervisor.Region.switch_region mgr ~rid:0 in
      (* region 0's slice excludes region 1's base *)
      let base1, _ = Hypervisor.Region.dev_slice mgr 1 in
      Devices.Gpu_hw.submit gpu
        (Devices.Gpu_hw.Blit
           {
             src = Devices.Gpu_hw.Vram (base1 - Devices.Gpu_hw.vram_base gpu);
             dst = Devices.Gpu_hw.Vram 4096;
             len = 16;
           });
      Devices.Gpu_hw.submit gpu (Devices.Gpu_hw.Fence 99999);
      Sim.Engine.run ~until:(Sim.Engine.now (Paradice.Machine.engine machine) +. 10_000.)
        (Paradice.Machine.engine machine);
      if List.length (Devices.Gpu_hw.faults gpu) > before then `Blocked else `Succeeded);
  attack "forged copy into guest kernel space" (fun () ->
      let table = Option.get (Hypervisor.Hyp.grant_table_of hyp g1.Paradice.Machine.vm) in
      let gref =
        Hypervisor.Grant_table.declare table
          [ Hypervisor.Grant_table.Copy_to_user { addr = 0x1000; len = 8 } ]
      in
      let app = Oskit.Kernel.spawn_task g1.Paradice.Machine.kernel ~name:"victim" in
      let req =
        { Hypervisor.Hyp.caller = driver_vm; target = g1.Paradice.Machine.vm;
          pt = app.Oskit.Defs.pt; grant_ref = gref }
      in
      match
        Hypervisor.Hyp.copy_to_process hyp req ~gva:0xC0000000 ~data:(Bytes.make 8 'X')
      with
      | () -> `Succeeded
      | exception Hypervisor.Hyp.Rejected _ -> `Blocked);
  let outcomes = List.rev !outcomes in
  let blocked, passed = List.partition snd outcomes in
  Report.table ~header:[ "attack"; "outcome" ]
    (List.map (fun (name, _) -> [ name; "BLOCKED" ]) blocked
    @ List.map (fun (name, _) -> [ name; "!!! SUCCEEDED" ]) passed);
  let audit = Hypervisor.Hyp.audit hyp in
  Report.note "audit: %s" (Format.asprintf "%a" Hypervisor.Audit.pp audit);
  Report.note "paper: fault + data isolation hold with no noticeable overhead";
  outcome overhead
    ~gates:
      (List.map
         (fun (name, ok) ->
           O.gate ("blocked: " ^ name) ok (if ok then "BLOCKED" else "SUCCEEDED"))
         outcomes)

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out, plus the        *)
(* paper's extension/future-work features implemented in this repo    *)
(* ------------------------------------------------------------------ *)

let ablations () =
  Report.heading "Ablations & extensions";

  (* 1. ioctl identification: analyzer vs macro-only (§4.1).  Nested-
     copy ioctls (CS) must fail without the analyzer: the backend
     driver's inner copies are undeclared and the hypervisor rejects
     them. *)
  Printf.printf "\n  -- ioctl identification mode (GEM+CS workflow in a guest) --\n";
  let try_cs mode_name ioctl_id_mode =
    let cfg = { Paradice.Config.default with Paradice.Config.ioctl_id_mode } in
    let _m, env = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice cfg) in
    let outcome =
      Workloads.Runner.run_to_completion env (fun () ->
          let task = Workloads.Runner.spawn_app env ~name:"gl" in
          let fd = Workloads.Gem.open_gpu env task in
          let bo =
            Workloads.Gem.create env task fd ~size:4096
              ~domain:Devices.Radeon_ioctl.domain_gtt
          in
          match
            Workloads.Gem.submit_cs env task fd
              ~ib_words:[ Devices.Radeon_ioctl.pkt_draw; 100; 640; 480; 1; 0 ]
              ~relocs:[| bo |]
          with
          | (_ : int) -> "command submission OK"
          | exception Workloads.Runner.Syscall_failed (e, _) ->
              "CS rejected with " ^ Oskit.Errno.to_string e)
    in
    [ mode_name; outcome ]
  in
  Report.table ~header:[ "identification"; "outcome" ]
    [
      try_cs "analyzer table + JIT slices" Paradice.Config.Analyzer_table;
      try_cs "macro decoding only" Paradice.Config.Macro_only;
    ];
  Report.note "nested-copy ioctls need the analyzer: macros cannot declare them";

  (* 2. channel pool width: a blocked read must not stall other files *)
  Printf.printf "\n  -- per-guest backend parallelism --\n";
  let stall_probe channels_per_guest =
    let cfg = { Paradice.Config.default with Paradice.Config.channels_per_guest } in
    let machine, env = Setup.make ~devices:[ Setup.Mouse; Setup.Null ] (Setup.Paradice cfg) in
    ignore machine;
    let result = ref nan in
    Workloads.Runner.spawn env (fun () ->
        (* a blocking mouse read parks one backend worker *)
        let task = Workloads.Runner.spawn_app env ~name:"blocked-reader" in
        let fd = Workloads.Runner.openf env task "/dev/input/event0" in
        let buf = Oskit.Task.alloc_buf task 64 in
        match Oskit.Vfs.read env.Workloads.Runner.kernel task fd ~buf ~len:64 with
        | _ -> ()
        | exception _ -> ());
    Workloads.Runner.spawn env (fun () ->
        Sim.Engine.wait 200.;
        (* meanwhile: time 50 no-ops on another device file *)
        let task = Workloads.Runner.spawn_app env ~name:"noop" in
        let fd = Workloads.Runner.openf env task "/dev/null0" in
        let t0 = Workloads.Runner.now_us env in
        let n = 50 in
        let finished = ref 0 in
        (try
           for _ = 1 to n do
             ignore
               (Workloads.Runner.ioctl env task fd ~cmd:Paradice.Machine.null_ioctl
                  ~arg:0L);
             incr finished
           done
         with _ -> ());
        if !finished = n then
          result := (Workloads.Runner.now_us env -. t0) /. float_of_int n);
    Sim.Engine.run ~until:2_000_000. (Workloads.Runner.engine env);
    !result
  in
  let stall =
    Report.grid ~prefix:"channels/guest" ~corner:"channels/guest" ~unit:"us"
      ~fmt:(fun r -> if Float.is_nan r then "stalled (never completed)" else Report.f2 r)
      ~cols:(one "noop while a read blocks (us)")
      [ ("1", 1); ("4 (default)", 4) ]
      (fun n () -> stall_probe n)
  in

  (* 3. cross-machine DSM transport (§8 future work) *)
  Printf.printf "\n  -- DSM-based cross-machine Paradice (§8) --\n";
  let noop_of cfg =
    let _m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice cfg) in
    Workloads.Noop_bench.run env ~ops:(scaled 500) ()
  in
  let dsm =
    Report.grid ~prefix:"transport" ~corner:"transport" ~unit:"us" ~cols:(one "noop (us)")
      [
        ("same machine, interrupts", Paradice.Config.default);
        ("cross-machine DSM (10GbE-class)", Paradice.Config.remote_dsm);
      ]
      (fun cfg () -> noop_of cfg)
  in

  (* 4. software-emulated VSync (§5.3 extension) *)
  Printf.printf "\n  -- software-emulated VSync --\n";
  let fps_with vsync =
    let _m, env = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice Paradice.Config.default) in
    Workloads.Gfx.run env ~vsync ~profile:Workloads.Gfx.vbo ~width:1024 ~height:768
      ~frames:(scaled 40) ()
  in
  let vsync =
    Report.grid ~prefix:"vsync" ~corner:"vsync" ~unit:"fps" ~fmt:Report.f1
      ~cols:(one "VBO FPS")
      [ ("off (as in §6.1.3)", false); ("on (emulated, 60 Hz)", true) ]
      (fun on () -> fps_with on)
  in

  (* 5. device breakage and recovery (§8) *)
  Printf.printf "\n  -- malicious command stream: breakage and recovery --\n";
  let machine, env = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice Paradice.Config.default) in
  let att = Option.get machine.Paradice.Machine.gpu in
  Devices.Radeon_drv.set_watchdog_timeout att.Paradice.Machine.radeon 10_000.;
  let rows =
    Workloads.Runner.run_to_completion env (fun () ->
        let task = Workloads.Runner.spawn_app env ~name:"evil" in
        let fd = Workloads.Gem.open_gpu env task in
        (* wedge the GPU with a clock-control write *)
        let wedge_outcome =
          match
            Workloads.Gem.submit_cs env task fd
              ~ib_words:[ Devices.Radeon_ioctl.pkt_reg_write; Devices.Gpu_hw.reg_clock_ctl; 0 ]
              ~relocs:[||]
          with
          | (_ : int) -> (
              match Workloads.Gem.wait_idle env task fd with
              | () -> "GPU survived"
              | exception Workloads.Runner.Syscall_failed (Oskit.Errno.EIO, _) ->
                  "hang detected, device reset")
          | exception Workloads.Runner.Syscall_failed (e, _) ->
              "rejected: " ^ Oskit.Errno.to_string e
        in
        (* the device must work again afterwards *)
        let after =
          let bo =
            Workloads.Gem.create env task fd ~size:4096
              ~domain:Devices.Radeon_ioctl.domain_gtt
          in
          match
            Workloads.Gem.submit_cs env task fd
              ~ib_words:[ Devices.Radeon_ioctl.pkt_draw; 100; 640; 480; 1; 0 ]
              ~relocs:[| bo |]
          with
          | (_ : int) ->
              Workloads.Gem.wait_idle env task fd;
              "renders normally"
          | exception _ -> "still broken"
        in
        [ [ "attack: clock-control register write"; wedge_outcome ];
          [ "after recovery"; after ] ])
  in
  Report.table ~header:[ "step"; "outcome" ] rows;
  let recoveries = Devices.Radeon_drv.stats_recoveries att.Paradice.Machine.radeon in
  Report.note "recoveries performed: %d" recoveries;

  (* 6. command-streamer protection (§8's "protect certain parts of the
     device programming interface") *)
  let machine2, env2 = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice Paradice.Config.default) in
  let att2 = Option.get machine2.Paradice.Machine.gpu in
  Devices.Radeon_drv.set_command_streamer_protection att2.Paradice.Machine.radeon true;
  let protected =
    Workloads.Runner.run_to_completion env2 (fun () ->
        let task = Workloads.Runner.spawn_app env2 ~name:"evil" in
        let fd = Workloads.Gem.open_gpu env2 task in
        match
          Workloads.Gem.submit_cs env2 task fd
            ~ib_words:[ Devices.Radeon_ioctl.pkt_reg_write; Devices.Gpu_hw.reg_clock_ctl; 0 ]
            ~relocs:[||]
        with
        | (_ : int) -> "accepted (!)"
        | exception Workloads.Runner.Syscall_failed (e, _) ->
            "rejected with " ^ Oskit.Errno.to_string e)
  in
  Report.table ~header:[ "with command-streamer protection"; "outcome" ]
    [ [ "clock-control register write"; protected ] ];

  (* 7. fair GPU scheduling across guests (§8's TimeGraph pointer) *)
  Printf.printf "\n  -- per-guest GPU scheduling under a flooding guest --\n";
  let victim_latency fair =
    let machine, _env =
      Setup.make ~devices:[ Setup.Gpu ] ~extra_guests:1
        (Setup.Paradice Paradice.Config.default)
    in
    let att = Option.get machine.Paradice.Machine.gpu in
    Devices.Radeon_drv.set_fair_scheduling att.Paradice.Machine.radeon fair;
    let guests = Paradice.Machine.guests machine in
    let flooder = List.nth guests 0 and victim = List.nth guests 1 in
    let env_f = Workloads.Runner.of_guest ~label:"flooder" machine flooder in
    let env_v = Workloads.Runner.of_guest ~label:"victim" machine victim in
    let latency = ref nan in
    Workloads.Runner.spawn env_f (fun () ->
        let task = Workloads.Runner.spawn_app env_f ~name:"flood" in
        let fd = Workloads.Gem.open_gpu env_f task in
        let bo =
          Workloads.Gem.create env_f task fd ~size:4096
            ~domain:Devices.Radeon_ioctl.domain_gtt
        in
        let ib =
          List.concat
            (List.init 40 (fun _ ->
                 [ Devices.Radeon_ioctl.pkt_draw; 30000; 1280; 1024; 1; 0 ]))
        in
        let (_ : int) =
          Workloads.Gem.submit_cs env_f task fd ~ib_words:ib ~relocs:[| bo |]
        in
        Workloads.Gem.wait_idle env_f task fd);
    Workloads.Runner.spawn env_v (fun () ->
        Sim.Engine.wait 2_000.;
        let task = Workloads.Runner.spawn_app env_v ~name:"small" in
        let fd = Workloads.Gem.open_gpu env_v task in
        let bo =
          Workloads.Gem.create env_v task fd ~size:4096
            ~domain:Devices.Radeon_ioctl.domain_gtt
        in
        let t0 = Workloads.Runner.now_us env_v in
        let ib = [ Devices.Radeon_ioctl.pkt_draw; 100; 320; 200; 1; 0 ] in
        let (_ : int) =
          Workloads.Gem.submit_cs env_v task fd ~ib_words:ib ~relocs:[| bo |]
        in
        Workloads.Gem.wait_idle env_v task fd;
        latency := Workloads.Runner.now_us env_v -. t0);
    Workloads.Runner.run env_v;
    !latency /. 1000.
  in
  let sched =
    Report.grid ~prefix:"gpu scheduling" ~corner:"GPU scheduling" ~unit:"ms" ~fmt:Report.f1
      ~cols:(one "victim job latency (ms)")
      [ ("FIFO (paper's prototype)", false); ("fair round-robin (extension)", true) ]
      (fun fair () -> victim_latency fair)
  in
  Report.note "one flooding guest queues ~40 expensive frames; the victim submits one small job";
  outcome (stall @ dsm @ vsync @ [ Report.count "gpu recoveries" recoveries ] @ sched)


(* ------------------------------------------------------------------ *)
(* §7.2: driver-VM crash recovery latency                              *)
(* ------------------------------------------------------------------ *)

(* How long until a driver-VM death is detected, how long the grant
   revoke + mapping teardown takes, and how long from the start of the
   reboot until a re-opened device file completes its first operation.
   Two crash modes: a poisoned crash is noticed by the in-flight RPC
   immediately; a silent crash is caught by the heartbeat watchdog. *)
let recovery () =
  Report.heading "§7.2 — driver-VM crash recovery latency";
  let module M = Paradice.Machine in
  let module CF = Paradice.Cvd_front in
  let run ~label ~silent =
    let config =
      if silent then
        {
          Paradice.Config.default with
          Paradice.Config.heartbeat_interval_us = 1_000.;
          heartbeat_miss_limit = 3;
          rpc_retries = 0;
        }
      else Paradice.Config.default
    in
    let m = M.create ~config () in
    let (_ : Oskit.Defs.device) = M.attach_null m in
    let (_ : Devices.Evdev.t) = M.attach_mouse m in
    let g = M.add_guest m ~name:"g1" () in
    let eng = M.engine m in
    (* a reader blocked in the driver VM when it dies: in the poisoned
       mode, this in-flight RPC is what notices the crash *)
    if not silent then
      Sim.Engine.spawn eng (fun () ->
          let app = M.spawn_app m g.M.kernel ~name:"reader" in
          let k = g.M.kernel in
          match Oskit.Vfs.openf k app "/dev/input/event0" with
          | Ok fd ->
              let buf = Oskit.Task.alloc_buf app 256 in
              ignore (Oskit.Vfs.read k app fd ~buf ~len:256)
          | Error _ -> ());
    Sim.Engine.at eng ~delay:10_000. (fun () ->
        M.kill_driver_vm ~poison:(not silent) m);
    let detection = ref nan and teardown = ref nan and reopen = ref nan in
    Sim.Engine.spawn eng (fun () ->
        let app = M.spawn_app m g.M.kernel ~name:"recovery-probe" in
        let k = g.M.kernel in
        while CF.session g.M.frontend = CF.Healthy do
          Sim.Engine.wait 100.
        done;
        let fs = CF.fault_stats g.M.frontend in
        detection := fs.CF.last_faulted_at -. M.last_killed_at m;
        teardown := fs.CF.last_teardown_us;
        let reboot_began = Sim.Engine.now eng in
        M.reboot_driver_vm m;
        match Oskit.Vfs.openf k app "/dev/null0" with
        | Ok fd -> (
            match Oskit.Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
            | Ok _ -> reopen := Sim.Engine.now eng -. reboot_began
            | Error _ -> ())
        | Error _ -> ());
    Sim.Engine.run ~until:2_000_000. eng;
    CF.stop_watchdog g.M.frontend;
    (label, (!detection, !teardown, !reopen))
  in
  let metrics =
    Report.rows ~corner:"crash mode"
      [
        Report.num ~unit:"us" ~fmt:Report.f1 "detection (us)" (fun (d, _, _) -> d);
        Report.num ~unit:"us" "teardown (us)" (fun (_, t, _) -> t);
        Report.num ~unit:"us" ~fmt:Report.f1 "reboot->first op (us)" (fun (_, _, r) -> r);
      ]
      [
        run ~label:"poisoned (in-flight RPC)" ~silent:false;
        run ~label:"silent (watchdog)" ~silent:true;
      ]
  in
  Report.note
    "reboot dominated by Config.driver_reboot_us (%.0f us); paper §7.2: the driver VM 'can be rebooted in a few seconds'"
    Paradice.Config.default.Paradice.Config.driver_reboot_us;
  outcome metrics

(* ------------------------------------------------------------------ *)
(* Ring throughput: no-op ops/sec vs in-flight depth                   *)
(* ------------------------------------------------------------------ *)

(* The descriptor ring lets one channel carry several RPCs at once and
   coalesces doorbells: while the backend is draining, newly published
   descriptors ride along without their own interrupt, so per-op
   signalling cost amortises toward zero.  This experiment pins the
   guest to ONE channel and sweeps the number of concurrent no-op
   issuers: the serial baseline pays 2 legs/op (~35 us); at depth >= 4
   the ring should better than double the ops/sec with fewer than one
   interrupt leg per operation. *)
let throughput () =
  Report.heading "Ring throughput — no-op ioctls vs in-flight depth (one channel)";
  let module R = Workloads.Runner in
  let total = scaled 2000 in
  let run_depth config depth =
    let machine, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice config) in
    (* warm the channel so the sweep measures the steady state *)
    R.run_to_completion env (fun () ->
        let task = R.spawn_app env ~name:"warm" in
        let fd = R.openf env task "/dev/null0" in
        let (_ : int) = R.ioctl env task fd ~cmd:Paradice.Machine.null_ioctl ~arg:0L in
        R.close env task fd);
    let s0 = pool_stats machine in
    let t0 = R.now_us env in
    let per_fiber = max 1 (total / depth) in
    for i = 1 to depth do
      R.spawn env (fun () ->
          let task = R.spawn_app env ~name:(Printf.sprintf "issuer%d" i) in
          let fd = R.openf env task "/dev/null0" in
          for _ = 1 to per_fiber do
            let (_ : int) =
              R.ioctl env task fd ~cmd:Paradice.Machine.null_ioctl ~arg:0L
            in
            ()
          done)
    done;
    R.run env;
    let s1 = pool_stats machine in
    let ops = per_fiber * depth in
    let us_per_op = (R.now_us env -. t0) /. float_of_int ops in
    let legs_per_op =
      float_of_int (s1.Paradice.Chan_pool.legs - s0.Paradice.Chan_pool.legs)
      /. float_of_int ops
    in
    (us_per_op, legs_per_op)
  in
  let config = { Paradice.Config.default with Paradice.Config.channels_per_guest = 1 } in
  let base_us, _ = run_depth config 1 in
  let depths = List.map (fun depth -> (depth, run_depth config depth)) [ 1; 2; 4; 8 ] in
  let speedup us = base_us /. us in
  let metrics =
    Report.rows ~prefix:"depth" ~corner:"depth"
      [
        Report.num ~unit:"us" "us/op" fst;
        Report.num ~unit:"1/s" ~fmt:Report.f0 "ops/sec" (fun (us, _) -> 1e6 /. us);
        Report.num ~unit:"x" "speedup" (fun (us, _) -> speedup us);
        Report.num ~unit:"count" "interrupt legs/op" snd;
      ]
      (List.map (fun (depth, r) -> (string_of_int depth, r)) depths)
  in
  Report.note "interrupts: serial baseline pays 2 legs/op";
  Report.note
    "acceptance: depth >= 4 at >= 2x the depth-1 ops/sec with < 1 interrupt leg/op";
  outcome metrics
    ~gates:
      (List.concat_map
         (fun (depth, (us, legs)) ->
           if depth < 4 then []
           else
             [
               O.gate
                 (Printf.sprintf "depth %d: >= 2x the depth-1 ops/sec" depth)
                 (speedup us >= 2.) (Printf.sprintf "%.2fx" (speedup us));
               O.gate
                 (Printf.sprintf "depth %d: < 1 interrupt leg/op" depth)
                 (legs < 1.) (Printf.sprintf "%.2f legs/op" legs);
             ])
         depths)

(* ------------------------------------------------------------------ *)
(* Operation tracing: Chrome trace export + §6.1 cost reconciliation   *)
(* ------------------------------------------------------------------ *)

(* Runs the no-op and netmap workloads twice each — tracing off, then
   on — and checks (a) the simulated-time result is bit-identical (the
   tracer only reads the clock), and (b) per trace id, the stage spans
   tile the end-to-end op span.  Exports Perfetto-loadable traces. *)
let trace () =
  Report.heading "Operation tracing — Chrome trace export + §6.1 reconciliation";
  let noop_run tracer =
    let cfg = { Paradice.Config.default with Paradice.Config.tracer } in
    let m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice cfg) in
    let us = Workloads.Noop_bench.run env ~ops:(scaled 50) () in
    (us, pool_stats m)
  in
  let netmap_run tracer =
    let cfg = { Paradice.Config.default with Paradice.Config.tracer } in
    let _m, env = Setup.make ~devices:[ Setup.Netmap ] (Setup.Paradice cfg) in
    (Workloads.Netmap_pktgen.run env ~packets:(scaled 2000) ~batch:8)
      .Workloads.Netmap_pktgen.elapsed_s
  in
  let noop_off, _ = noop_run Obs.Trace.disabled in
  let noop_tr = Obs.Trace.create () in
  let noop_on, noop_stats = noop_run noop_tr in
  let nm_off = netmap_run Obs.Trace.disabled in
  let nm_tr = Obs.Trace.create () in
  let nm_on = netmap_run nm_tr in
  let runs =
    [
      ("noop (ioctl)", (noop_tr, Obs.Trace.reconcile noop_tr, noop_off = noop_on));
      ("netmap pktgen", (nm_tr, Obs.Trace.reconcile nm_tr, nm_off = nm_on));
    ]
  in
  let summary =
    Report.rows ~corner:"workload"
      [
        Report.int "spans" (fun (t, _, _) -> List.length (Obs.Trace.completed t));
        Report.int "ops reconciled" (fun (_, r, _) -> r.Obs.Trace.r_ops);
        Report.num ~unit:"us" ~fmt:Report.f3 "max gap (us)" (fun (_, r, _) ->
            r.Obs.Trace.r_max_gap_us);
        Report.text "off vs on" (fun (_, _, same) -> if same then "identical" else "PERTURBED");
      ]
      runs
  in
  Report.note
    "acceptance: per-stage span sums reconcile with end-to-end op latency";
  Report.note
    "            within one simulated tick; tracing on = bit-identical timing";
  (* per-stage latency histograms from the spans, and the signalling
     counts (noop run) *)
  let stages =
    Report.rows ~prefix:"noop span" ~corner:"span (noop run)"
      [ Report.int "count" Sim.Stats.count; Report.num ~unit:"us" "mean (us)" Sim.Stats.mean ]
      (Obs.Trace.histograms noop_tr)
  in
  let counters = Paradice.Chan_pool.signal_counts noop_stats in
  List.iter (fun (name, count) -> Report.note "counter %s = %d" name count) counters;
  (* Perfetto-loadable exports *)
  let dump path t =
    Out_channel.with_open_text path (fun oc -> output_string oc (Obs.Trace.to_chrome_json t))
  in
  dump "BENCH_trace_noop.json" noop_tr;
  dump "BENCH_trace_netmap.json" nm_tr;
  Report.note "wrote BENCH_trace_noop.json, BENCH_trace_netmap.json";
  Report.note "load the trace files in https://ui.perfetto.dev to inspect";
  outcome
    (summary @ stages
    @ List.map (fun (name, n) -> Report.count ("noop counter/" ^ name) n) counters)
    ~gates:
      (List.concat_map
         (fun (name, (_, r, same)) ->
           let gap = r.Obs.Trace.r_max_gap_us in
           [
             O.gate (name ^ ": tracing off vs on identical") same
               (if same then "identical" else "PERTURBED");
             O.gate (name ^ ": reconcile gap <= 0.001 us") (gap <= 0.001)
               (Printf.sprintf "%.3f us over %d ops" gap r.Obs.Trace.r_ops);
           ])
         runs)

(* ------------------------------------------------------------------ *)
(* Backend containment: sanitization cost + quarantine isolation       *)
(* ------------------------------------------------------------------ *)

(* Two claims from §4/§7.1: bounding every request field costs nothing
   on the data path (it is pure backend work, off the device), and
   quarantining a misbehaving guest leaves sibling guests' service
   untouched.  The attack is the hostile-suite one: raw garbage written
   straight into the attacker's ring slots until its misbehavior score
   trips the threshold. *)
let containment () =
  Report.heading "§7.1 — backend containment: sanitization cost, quarantine isolation";
  let measure config =
    let _m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice config) in
    Workloads.Noop_bench.run env ~ops:(scaled 2000) ()
  in
  let sanitize =
    Report.grid ~corner:"config" ~unit:"us" ~cols:(one "noop added latency (us/op)")
      [
        ("sanitize on (default)", Paradice.Config.default);
        ( "sanitize off (ablation)",
          { Paradice.Config.default with Paradice.Config.sanitize_requests = false } );
      ]
      (fun config () -> measure config)
  in
  Report.note
    "sanitization bounds every field off the data path: delta = %+.3f us/op"
    (Report.value sanitize "sanitize on (default)"
    -. Report.value sanitize "sanitize off (ablation)");
  (* victim latency while a sibling attacks its way into quarantine *)
  let module M = Paradice.Machine in
  let module CB = Paradice.Cvd_back in
  let module P = Paradice.Proto in
  let victim_run ~attack =
    let m = M.create () in
    let (_ : Oskit.Defs.device) = M.attach_null m in
    let attacker = M.add_guest m ~name:"attacker" () in
    let victim = M.add_guest m ~name:"victim" () in
    let ops = scaled 500 in
    let elapsed = ref nan and served = ref 0 in
    if attack then
      Sim.Engine.spawn (M.engine m) (fun () ->
          let rng = Sim.Rng.create ~seed:0xBADD1EL in
          for _round = 1 to 20 do
            Paradice.Chan_pool.iter_channels attacker.M.link.CB.pool (fun c ->
                for slot = 0 to Paradice.Config.ring_slots - 1 do
                  Paradice.Channel.inject_raw c ~slot
                    (Bytes.init P.slot_size (fun _ ->
                         Char.chr (Sim.Rng.int rng 256)))
                done);
            Sim.Engine.wait 25.
          done);
    Sim.Engine.spawn (M.engine m) (fun () ->
        let app = M.spawn_app m victim.M.kernel ~name:"victim" in
        let req = P.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid P.Rnoop in
        let t0 = Sim.Engine.now (M.engine m) in
        for _ = 1 to ops do
          match
            P.decode_response (Paradice.Chan_pool.rpc victim.M.link.CB.pool req)
          with
          | P.Rok 0 -> incr served
          | _ -> ()
          | exception _ -> ()
        done;
        elapsed := Sim.Engine.now (M.engine m) -. t0);
    Sim.Engine.run ~until:5_000_000. (M.engine m);
    (!elapsed /. float_of_int ops, !served, ops, attacker.M.link.CB.quarantined)
  in
  let ((solo_us, _, _, _) as solo) = victim_run ~attack:false in
  let ((att_us, _, _, quarantined) as attacked) = victim_run ~attack:true in
  let victim =
    Report.rows ~prefix:"victim" ~corner:"victim workload"
      [
        Report.text "noops served" (fun ((_, served, ops, _), _) ->
            Printf.sprintf "%d/%d" served ops);
        Report.num ~unit:"us" "us/op" (fun ((us, _, _, _), _) -> us);
        Report.text "attacker state" snd;
      ]
      [
        ("solo baseline", (solo, "-"));
        ( "sibling under attack",
          (attacked, if quarantined then "quarantined" else "NOT QUARANTINED") );
      ]
  in
  let ratio = att_us /. solo_us in
  Report.note
    "acceptance: victim within 20%% of the solo baseline (ratio %.3f); attacker quarantined"
    ratio;
  outcome
    (sanitize @ victim @ [ Report.sim ~unit:"ratio" "victim/ratio" ratio ])
    ~gates:
      [
        O.gate "victim within 20% of the solo baseline" (ratio <= 1.2)
          (Printf.sprintf "ratio %.3f" ratio);
        O.gate "attacker quarantined" quarantined
          (if quarantined then "quarantined" else "NOT QUARANTINED");
      ]

(* ------------------------------------------------------------------ *)
(* Hot upgrade: guest-visible blackout per op class                    *)
(* ------------------------------------------------------------------ *)

(* One op class across the upgrade: worst per-op latency without and
   with it, guest-visible errors, and whether two no-upgrade runs were
   bit-identical. *)
type upgrade_row = {
  base : float;
  worst : float;
  enodev : int;
  eio : int;
  other : int;
  completed : int;
  target : int;
  deterministic : bool;
  upgraded : Paradice.Machine.upgrade_outcome option;
}

(* The live-operations claim: a planned driver-VM upgrade is invisible
   to guests except as latency.  Each op class runs a steady operation
   stream; mid-run the driver VM is hot-upgraded (replacement boot
   overlapped with live service, then quiesce / checkpoint / swap /
   restore / resume).  Reported per class: the no-upgrade worst-case
   per-op latency, the worst guest-visible stall across the upgrade,
   and the upgrade's phase breakdown.  Acceptance: every operation
   completes with zero ENODEV/EIO across the upgrade, and two
   no-upgrade runs are bit-identical in simulated time (the handoff
   machinery costs nothing when not triggered). *)
let upgrade () =
  Report.heading "Hot upgrade — guest-visible blackout per op class";
  let module M = Paradice.Machine in
  let ops = scaled 300 in
  (* boot time is overlapped with live service, but the workload still
     has to outlast it for the blackout to land mid-stream *)
  let config =
    { Paradice.Config.default with Paradice.Config.driver_reboot_us = 5_000. }
  in
  let upgrade_at = 2_000. in
  let run ~cls ~do_upgrade =
    let m = M.create ~config () in
    let (_ : Oskit.Defs.device) = M.attach_null m in
    let mouse = M.attach_mouse m in
    let (_ : Devices.Netmap_drv.t) = M.attach_netmap m in
    let g = M.add_guest m ~name:"g1" () in
    let eng = M.engine m in
    let k = g.M.kernel in
    let lats = ref [] and enodev = ref 0 and eio = ref 0 and other = ref 0 in
    let completed = ref 0 in
    let record t0 = function
      | Ok _ ->
          incr completed;
          lats := (Sim.Engine.now eng -. t0) :: !lats
      | Error e ->
          if e = Oskit.Errno.ENODEV then incr enodev
          else if e = Oskit.Errno.EIO then incr eio
          else incr other
    in
    let target = ref ops in
    (match cls with
    | `Noop ->
        Sim.Engine.spawn eng (fun () ->
            let app = M.spawn_app m k ~name:"noop" in
            match Oskit.Vfs.openf k app "/dev/null0" with
            | Error _ -> other := !other + ops
            | Ok fd ->
                for _ = 1 to ops do
                  Sim.Engine.wait 200.;
                  let t0 = Sim.Engine.now eng in
                  record t0 (Oskit.Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L)
                done)
    | `Evdev ->
        (* each move injects a REL + SYN pair; count delivered events *)
        target := ops * 2;
        Devices.Evdev.start_mouse mouse ~rate_hz:2_000. ~moves:ops;
        Sim.Engine.spawn eng (fun () ->
            let app = M.spawn_app m k ~name:"evreader" in
            match Oskit.Vfs.openf k app "/dev/input/event0" with
            | Error _ -> other := !other + !target
            | Ok fd ->
                let buf = Oskit.Task.alloc_buf app 512 in
                let got = ref 0 in
                let bail = ref false in
                while !got < !target && not !bail do
                  let t0 = Sim.Engine.now eng in
                  match Oskit.Vfs.read k app fd ~buf ~len:512 with
                  | Ok n ->
                      got := !got + (n / Devices.Evdev.event_bytes);
                      lats := (Sim.Engine.now eng -. t0) :: !lats
                  | Error e ->
                      record t0 (Error e);
                      bail := true
                done;
                completed := !completed + !got)
    | `Netmap ->
        Sim.Engine.spawn eng (fun () ->
            let app = M.spawn_app m k ~name:"nm-sync" in
            match Oskit.Vfs.openf k app "/dev/netmap" with
            | Error _ -> other := !other + ops
            | Ok fd ->
                let arg = Oskit.Task.alloc_buf app 16 in
                (match
                   Oskit.Vfs.ioctl k app fd ~cmd:Devices.Netmap_drv.nioc_regif
                     ~arg:(Int64.of_int arg)
                 with
                | Ok _ | Error _ -> ());
                for _ = 1 to ops do
                  Sim.Engine.wait 200.;
                  let t0 = Sim.Engine.now eng in
                  record t0
                    (Oskit.Vfs.ioctl k app fd ~cmd:Devices.Netmap_drv.nioc_txsync
                       ~arg:0L)
                done));
    let outcome = ref None in
    if do_upgrade then
      Sim.Engine.spawn eng (fun () ->
          Sim.Engine.wait upgrade_at;
          outcome := Some (M.upgrade_driver_vm m));
    Sim.Engine.run eng;
    ( Sim.Engine.now eng,
      List.rev !lats,
      (!enodev, !eio, !other),
      !completed,
      !target,
      !outcome )
  in
  let max_lat lats = List.fold_left max 0. lats in
  let classes = [ ("noop ioctl", `Noop); ("evdev read", `Evdev); ("netmap sync", `Netmap) ] in
  let results =
    List.map
      (fun (label, cls) ->
        let t_a, lats_a, _, _, _, _ = run ~cls ~do_upgrade:false in
        let t_b, lats_b, _, _, _, _ = run ~cls ~do_upgrade:false in
        let _, lats_u, (enodev, eio, other), completed, target, upgraded =
          run ~cls ~do_upgrade:true
        in
        ( label,
          {
            base = max_lat lats_a; worst = max_lat lats_u; enodev; eio; other;
            completed; target; deterministic = t_a = t_b && lats_a = lats_b; upgraded;
          } ))
      classes
  in
  let us header f = Report.num ~unit:"us" ~fmt:Report.f1 header f in
  let table =
    Report.rows ~corner:"op class"
      [
        us "baseline max (us)" (fun r -> r.base);
        us "upgraded max (us)" (fun r -> r.worst);
        us "stall (us)" (fun r -> r.worst -. r.base);
        Report.text "completed" (fun r -> Printf.sprintf "%d/%d" r.completed r.target);
        Report.int "ENODEV" (fun r -> r.enodev);
        Report.int "EIO" (fun r -> r.eio);
        Report.text "no-upgrade runs" (fun r ->
            if r.deterministic then "bit-identical" else "DIVERGED");
      ]
      results
  in
  (match results with
  | (_, { upgraded = Some (M.Upgraded s); _ }) :: _ ->
      Report.note
        "upgrade phases (noop run): boot %.1f us (overlapped), blackout %.1f us = quiesce %.1f + checkpoint %.1f + swap %.1f + restore %.1f + resume %.1f"
        s.M.up_boot_us s.M.up_blackout_us s.M.up_quiesce_us s.M.up_checkpoint_us
        s.M.up_swap_us s.M.up_restore_us s.M.up_resume_us;
      Report.note
        "snapshot %d bytes; %d files restored (%d dropped), %d VMAs, %d parked ops replayed, %d mappings kept / %d dropped, %d grants revoked"
        s.M.up_checkpoint_bytes s.M.up_files_restored s.M.up_files_dropped
        s.M.up_vmas_restored s.M.up_parked_ops s.M.up_mappings_kept
        s.M.up_mappings_dropped s.M.up_grants_revoked
  | _ -> Report.note "upgrade did not complete as Upgraded — see JSON");
  Report.note
    "acceptance: 100%% completion, zero ENODEV/EIO across the upgrade; no-upgrade runs bit-identical";
  outcome
    (table
    @ List.concat_map
        (fun (label, r) ->
          let us (k, v) = Report.sim ~unit:"us" (label ^ "/" ^ k) v in
          Report.count (label ^ "/other errors") r.other
          ::
          (match r.upgraded with
          | Some (M.Upgraded s) ->
              Report.count (label ^ "/snapshot bytes") s.M.up_checkpoint_bytes
              :: Report.count (label ^ "/parked ops") s.M.up_parked_ops
              :: List.map us
                   [
                     ("boot", s.M.up_boot_us); ("blackout", s.M.up_blackout_us);
                     ("quiesce", s.M.up_quiesce_us); ("checkpoint", s.M.up_checkpoint_us);
                     ("swap", s.M.up_swap_us); ("restore", s.M.up_restore_us);
                     ("resume", s.M.up_resume_us);
                   ]
          | _ -> []))
        results)
    ~gates:
      (List.concat_map
         (fun (label, r) ->
           [
             O.gate (label ^ ": zero ENODEV/EIO across the upgrade")
               (r.enodev = 0 && r.eio = 0)
               (Printf.sprintf "%d ENODEV / %d EIO" r.enodev r.eio);
             O.gate (label ^ ": no-upgrade runs bit-identical") r.deterministic
               (if r.deterministic then "bit-identical" else "DIVERGED");
             O.gate (label ^ ": 100% completion") (r.completed >= r.target)
               (Printf.sprintf "%d/%d" r.completed r.target);
           ])
         results)

(* ------------------------------------------------------------------ *)
(* Hybrid notification + multi-op descriptors (ROADMAP item 2)         *)
(* ------------------------------------------------------------------ *)

(* NAPI-style hybrid notification: an interrupt wakes the idle side,
   which then stays in a bounded poll window while work keeps
   arriving, so back-to-back operations ride at polling cost without a
   dedicated polling CPU.  Multi-op descriptors pack several small
   file operations into one ring slot, amortising the remaining
   notification legs.  This experiment recomputes §6.1.1 and Figure 2
   under both mechanisms and gates CI on the results. *)

let notify () =
  Report.heading
    "Hybrid notification + multi-op descriptors — §6.1.1 / Figure 2 revisited";
  let errors = ref [] in
  let guard ~what f ~fallback =
    try f ()
    with exn ->
      errors := Printf.sprintf "%s: %s" what (Printexc.to_string exn) :: !errors;
      fallback
  in
  (* -- (a) §6.1.1 no-op latency across notification modes -- *)
  let noop_modes =
    [
      ("interrupts", Paradice.Config.default);
      ("hybrid", Paradice.Config.hybrid);
      ("polling", Paradice.Config.polling);
    ]
  in
  let noop_results =
    List.map
      (fun (name, cfg) ->
        let m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice cfg) in
        let avg =
          guard ~what:("noop/" ^ name) ~fallback:nan (fun () ->
              Workloads.Noop_bench.run env ~ops:(scaled 2000) ())
        in
        let g = List.hd (Paradice.Machine.guests m) in
        let _fwd, _jit, st = Paradice.Cvd_front.stats g.Paradice.Machine.frontend in
        (name, (avg, st, if name = "polling" then 2 else 0)))
      noop_modes
  in
  let noop_table =
    Report.rows ~corner:"mode"
      [
        Report.num ~unit:"us" "added latency (us/op)" (fun (avg, _, _) -> avg);
        Report.int "notify legs" (fun (_, st, _) -> st.Paradice.Chan_pool.legs);
        Report.int "poll pickups" (fun (_, st, _) -> st.Paradice.Chan_pool.req_poll_pickups);
        Report.int "poll deliveries" (fun (_, st, _) ->
            st.Paradice.Chan_pool.resp_poll_deliveries);
        Report.int "dedicated poll CPUs" (fun (_, _, cpus) -> cpus);
      ]
      noop_results
  in
  let noop_of name = (fun (avg, _, _) -> avg) (List.assoc name noop_results) in
  Report.note
    "hybrid rides the poll window between back-to-back ops: polling-cost handoffs,";
  Report.note
    "      zero dedicated polling CPUs; the interrupt pair returns only after idle";
  (* -- (b) Figure 2 recomputed with multi-op descriptors -- *)
  let line_rate = 1.488 in
  let packets = scaled 20_000 in
  let ops_per_desc = 16 in
  let fig2_cols =
    Report.labelled
      (fun (name, _, _) -> name)
      [
        ("Paradice", Paradice.Config.default, false);
        ("Paradice+mop", Paradice.Config.default, true);
        ("Paradice(H)+mop", Paradice.Config.hybrid, true);
        ("Paradice(P)", Paradice.Config.polling, false);
      ]
  in
  let batches = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let fig2 =
    Report.grid ~prefix:"fig2" ~corner:"batch" ~unit:"Mpps" ~fmt:Report.f3 ~cols:fig2_cols
      (ints batches)
      (fun batch (name, cfg, batched) ->
        guard
          ~what:(Printf.sprintf "fig2/%s/batch=%d" name batch)
          ~fallback:nan
          (fun () ->
            let _m, env = Setup.make ~devices:[ Setup.Netmap ] (Setup.Paradice cfg) in
            let r =
              if batched then
                Workloads.Netmap_pktgen.run_batched env ~packets ~batch ~ops_per_desc ()
              else Workloads.Netmap_pktgen.run env ~packets ~batch
            in
            r.Workloads.Netmap_pktgen.rate_mpps))
  in
  Report.note "line rate at 64B on 1GbE = 1.488 Mpps; +mop = %d txsyncs per descriptor"
    ops_per_desc;
  let crossovers =
    List.map
      (fun (name, _) ->
        ( name,
          List.find_opt
            (fun batch ->
              Report.value fig2 (Printf.sprintf "fig2/%d/%s" batch name) >= 0.95 *. line_rate)
            batches ))
      fig2_cols
  in
  List.iter
    (fun (name, c) ->
      Report.note "crossover to line rate: %-16s %s" name
        (match c with Some b -> Printf.sprintf "batch >= %d" b | None -> "never"))
    crossovers;
  (* -- (c) trace tiling in every mode (noop, traced) -- *)
  let reconcile_rows =
    List.map
      (fun (name, cfg) ->
        let tracer = Obs.Trace.create () in
        let cfg = { cfg with Paradice.Config.tracer } in
        let m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice cfg) in
        let (_ : float) =
          guard ~what:("reconcile/" ^ name) ~fallback:nan (fun () ->
              Workloads.Noop_bench.run env ~ops:(scaled 50) ())
        in
        (name, (Obs.Trace.reconcile tracer, pool_stats m)))
      noop_modes
  in
  let batch_reconcile =
    let tracer = Obs.Trace.create () in
    let cfg = { Paradice.Config.hybrid with Paradice.Config.tracer } in
    let m, env = Setup.make ~devices:[ Setup.Netmap ] (Setup.Paradice cfg) in
    let (_ : Workloads.Netmap_pktgen.result) =
      guard ~what:"reconcile/hybrid+mop" (fun () ->
          Workloads.Netmap_pktgen.run_batched env ~packets:(scaled 2000) ~batch:8
            ~ops_per_desc ())
        ~fallback:
          { Workloads.Netmap_pktgen.rate_mpps = nan; packets = 0; elapsed_s = nan }
    in
    ("hybrid+mop", (Obs.Trace.reconcile tracer, pool_stats m))
  in
  let reconcile_rows = reconcile_rows @ [ batch_reconcile ] in
  let reconcile =
    Report.rows ~prefix:"reconcile" ~corner:"mode (traced noop)"
      [
        Report.int "ops reconciled" (fun (r, _) -> r.Obs.Trace.r_ops);
        Report.num ~unit:"us" ~fmt:Report.f3 "max gap (us)" (fun (r, _) ->
            r.Obs.Trace.r_max_gap_us);
      ]
      reconcile_rows
  in
  List.iter
    (fun (name, (_, stats)) ->
      List.iter
        (fun (counter, count) ->
          if
            counter = "doorbell.req_suppressed"
            || counter = "doorbell.resp_suppressed"
            || counter = "hybrid.poll_windows"
          then Report.note "%s: counter %s = %d" name counter count)
        (Paradice.Chan_pool.signal_counts stats))
    reconcile_rows;
  Report.note
    "acceptance: stage spans (incl. hybrid handoffs, per-sub-op spans excluded)";
  Report.note "            tile each op exactly in every notification mode";
  let hybrid_noop = noop_of "hybrid" and polling_noop = noop_of "polling" in
  let mop_crossover = List.assoc "Paradice+mop" crossovers in
  outcome
    (noop_table
    @ [ Report.sim ~unit:"ratio" "hybrid over polling" (hybrid_noop /. polling_noop) ]
    @ fig2
    @ List.map
        (fun (name, c) ->
          Report.sim ~unit:"batch" ("crossover/" ^ name)
            (match c with Some b -> float_of_int b | None -> nan))
        crossovers
    @ reconcile)
    ~gates:
      ([
         O.gate "no op errors" (!errors = []) (String.concat "; " (List.rev !errors));
         O.gate "hybrid noop within 2x dedicated polling"
           (hybrid_noop <= 2. *. polling_noop)
           (Printf.sprintf "hybrid %.2f us, polling %.2f us" hybrid_noop polling_noop);
         O.gate "interrupt-mode multi-op crossover at batch <= 4"
           (match mop_crossover with Some b -> b <= 4 | None -> false)
           (match mop_crossover with
           | Some b -> Printf.sprintf "batch %d" b
           | None -> "never reaches line rate");
       ]
      @ List.map
          (fun (name, (r, _)) ->
            let gap = r.Obs.Trace.r_max_gap_us in
            O.gate (name ^ ": spans tile each op") (gap <= 0.001)
              (Printf.sprintf "max gap %.3f us" gap))
          reconcile_rows)

(* ------------------------------------------------------------------ *)
(* Fleet-scale sharded execution (ROADMAP item 1)                      *)
(* ------------------------------------------------------------------ *)

(* Hundreds of guest links served by a fleet of independent driver-VM
   shards running on parallel OCaml domains (Paradice.Fleet).  Shards
   share no simulated state, so fixed seeds give bit-identical
   per-shard simulated-time results whatever the domain count — the
   determinism gate — while wall-clock aggregate throughput scales
   with shards.  Tail latency (p99/p999) is aggregated across shards
   by exact histogram pooling (Sim.Stats.merge),
   and a Zipf-skewed offered load checks that per-guest isolation
   (rings + caps, §5.1) keeps the fleet fair. *)

(* One fleet run at a given shard count: domains used, wall-clock
   time, completed and errored ops, the per-shard results, and every
   guest's latency samples pooled. *)
type fleet_row = {
  domains : int;
  wall : float;
  ok : int;
  err : int;
  shard_results : Workloads.Fleet_load.result array;
  pooled : Sim.Stats.t;
}

let fleet () =
  let module FL = Workloads.Fleet_load in
  let module F = Paradice.Fleet in
  Report.heading "Fleet — sharded execution: scaling, tail latency, fairness";
  let seed = 0xF1EE7L in
  let guests = max 208 (scaled 256) in (* >= 200 links even under --quick *)
  let base_ops = scaled 40 in
  let cores = Domain.recommended_domain_count () in
  let uniform = FL.uniform_ops ~guests ~base:base_ops in
  Report.note "%d guest links, %d ops/guest, %d cores available" guests
    base_ops cores;

  (* -- wall-clock scaling: same offered load, more shards -- *)
  let shard_counts = [ 1; 2; 4; 8 ] in
  let timed_run ?domains specs =
    let t0 = Unix.gettimeofday () in
    let results = FL.run_fleet ?domains specs in
    (results, Unix.gettimeofday () -. t0)
  in
  let scaling =
    List.map
      (fun shards ->
        let specs = FL.make_specs ~shards ~seed ~ops:uniform () in
        let domains = max 1 (min shards cores) in
        let shard_results, wall = timed_run ~domains specs in
        ( string_of_int shards,
          {
            domains; wall; shard_results;
            ok = Array.fold_left (fun a r -> a + r.FL.r_ok) 0 shard_results;
            err = Array.fold_left (fun a r -> a + r.FL.r_err) 0 shard_results;
            pooled =
              Sim.Stats.merge
                (List.map (fun g -> g.FL.g_lat) (FL.all_guests shard_results));
          } ))
      shard_counts
  in
  let p name stat = Report.num ~unit:"us" ~fmt:Report.f1 name stat in
  let scaling_table =
    Report.rows ~prefix:"shards" ~corner:"shards"
      [
        Report.int ~clock:Wall "domains" (fun r -> r.domains);
        Report.num ~clock:Wall ~unit:"s" "wall s" (fun r -> r.wall);
        Report.num ~clock:Wall ~unit:"1/s" ~fmt:Report.f1 "ops/s" (fun r ->
            float_of_int r.ok /. r.wall);
        p "p50 us" (fun r -> Sim.Stats.median r.pooled);
        p "p99 us" (fun r -> Sim.Stats.p99 r.pooled);
        p "p999 us" (fun r -> Sim.Stats.p999 r.pooled);
        Report.int "errs" (fun r -> r.err);
      ]
      scaling
  in
  let at n = List.assoc (string_of_int n) scaling in
  let speedup_4 = (at 1).wall /. (at 4).wall in
  Report.note "1 -> 4 shard wall-clock speedup: %.2fx (gate >= 3x needs >= 4 cores)"
    speedup_4;

  (* -- determinism: 4 shards on 1 domain vs all cores -- *)
  let specs4 = FL.make_specs ~shards:4 ~seed ~ops:uniform () in
  let seq4, _ = timed_run ~domains:1 specs4 in
  let par4 = (at 4).shard_results in
  let fingerprint (r : FL.result) =
    (r.FL.r_shard, r.FL.r_ok, r.FL.r_err, r.FL.r_digest, r.FL.r_sim_end_us)
  in
  let deterministic =
    Array.for_all2 (fun a b -> fingerprint a = fingerprint b) seq4 par4
  in
  Report.note "1-domain vs %d-domain per-shard results: %s"
    (max 1 (min 4 cores))
    (if deterministic then "bit-identical" else "DIVERGED");

  (* -- fairness under Zipf-skewed offered load (4 shards) -- *)
  let zipf = FL.zipf_ops ~guests ~base:base_ops ~alpha:1.0 in
  let zres, _ = timed_run (FL.make_specs ~shards:4 ~seed ~ops:zipf ()) in
  let fairness = FL.fairness zres in
  let zerr = Array.fold_left (fun a r -> a + r.FL.r_err) 0 zres in
  Report.note
    "zipf(1.0) offered load: per-guest mean-latency spread %.2fx (1.0 = fair)"
    fairness;

  if cores < 4 then Report.note "scaling gate skipped: only %d core(s) available" cores;
  let errors_gate name n =
    O.gate (name ^ ": no errored ops") (n = 0) (Printf.sprintf "%d errored ops" n)
  in
  outcome
    ([
       Report.count "guests" guests; Report.count "ops per guest" base_ops;
       Report.wall ~unit:"count" "cores" (float_of_int cores);
       Report.wall ~unit:"x" "speedup 1 to 4 shards" speedup_4;
       Report.sim ~unit:"x" "zipf fairness" fairness; Report.count "zipf errors" zerr;
     ]
    @ scaling_table)
    ~gates:
      ([ O.gate ">= 200 guest links" (guests >= 200) (Printf.sprintf "%d links" guests) ]
      @ List.concat_map
          (fun (shards, r) ->
            let name = shards ^ " shards" in
            [
              errors_gate name r.err;
              O.gate (name ^ ": every op completed") (r.ok = guests * base_ops)
                (Printf.sprintf "%d/%d ops" r.ok (guests * base_ops));
            ])
          scaling
      @ [
          O.gate "per-shard results identical on 1 vs N domains" deterministic
            (if deterministic then "bit-identical" else "DIVERGED");
          errors_gate "zipf" zerr;
          O.gate "zipf fairness <= 3x" (fairness <= 3.0) (Printf.sprintf "%.2fx" fairness);
        ]
      @
      if cores >= 4 then
        [
          O.gate "1 -> 4 shard wall-clock speedup >= 3x" (speedup_4 >= 3.0)
            (Printf.sprintf "%.2fx on %d cores" speedup_4 cores);
        ]
      else [])
