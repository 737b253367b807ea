(* hostprof: where the host's time goes in a simulator loop.

   Samples the host program counter at about 10 kHz while a measured
   loop runs, after a warm-up, and writes the samples with the
   executable's memory map; hostprof.py turns them into shares per
   function and per module.

     dune build tools/hostprof/hostprof.exe
     _build/default/tools/hostprof/hostprof.exe --ops 2000000
     python3 tools/hostprof/hostprof.py hostprof.out

   The loop is back-to-back null ioctls from one guest process, on the
   machine [Baselines.Setup.make ~devices:[Null]] builds under
   [Config.default] (perfbench's noop_rtt).

   PC sampling needs Linux on x86-64; elsewhere the tool exits with a
   message. *)

external supported : unit -> bool = "hostprof_supported"
external start : int -> int -> unit = "hostprof_start"
external stop : unit -> int = "hostprof_stop"
external write_samples : string -> unit = "hostprof_write"

let hz = 10_000

(* 100 s of samples at [hz]; later samples are counted as dropped *)
let capacity = 1_000_000
let warmup_ops = 20_000

module R = Workloads.Runner

let sample ~ops =
  let _, env =
    Baselines.Setup.make ~devices:[ Baselines.Setup.Null ]
      (Baselines.Setup.Paradice Paradice.Config.default)
  in
  R.run_to_completion env (fun () ->
      let task = R.spawn_app env ~name:"hostprof" in
      let fd = R.openf env task "/dev/null0" in
      let null_ioctl () =
        let rc = R.ioctl env task fd ~cmd:Paradice.Machine.null_ioctl ~arg:0L in
        if rc <> 0 then failwith (Printf.sprintf "null ioctl returned %d" rc)
      in
      for _ = 1 to warmup_ops do
        null_ioctl ()
      done;
      start capacity hz;
      for _ = 1 to ops do
        null_ioctl ()
      done;
      stop ())

let () =
  let ops = ref 2_000_000 and out = ref "hostprof.out" in
  Arg.parse
    [
      ("--ops", Arg.Set_int ops, "N operations in the sampled loop (default 2000000)");
      ("--out", Arg.Set_string out, "FILE where the samples go (default hostprof.out)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hostprof.exe [--ops N] [--out FILE]";
  if not (supported ()) then begin
    prerr_endline "hostprof: PC sampling needs Linux on x86-64; nothing sampled";
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  let n = sample ~ops:!ops in
  let seconds = Unix.gettimeofday () -. t0 in
  let oc = open_out !out in
  Printf.fprintf oc "workload noop\nops %d\nhz %d\nexe %s\n" !ops hz Sys.executable_name;
  let maps = open_in "/proc/self/maps" in
  (try
     while true do
       Printf.fprintf oc "map %s\n" (input_line maps)
     done
   with End_of_file -> close_in maps);
  close_out oc;
  write_samples !out;
  Printf.eprintf "hostprof: %d samples over %d null ioctls (%.2f s with set-up) -> %s\n" n
    !ops seconds !out
