(* perfbench: the repository benchmark, one workload per run.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A run repeats identical reps (fresh machine, warm-up, a fixed number
   of timed requests) until S host seconds are spent and reports medians
   over reps.  Two clocks, named in every metric: [host_*] is how fast
   the simulator runs, [sim_*] is the paper's cost model.  With --trace 0
   the end-to-end metrics come from untraced reps; with --trace 1 the
   per-layer metrics come from untraced, traced and (noop_rtt,
   gpu_frames) Native reps interleaved, plus standalone replays of each
   layer's public functions (Layers).  The last line of stdout is one
   JSON object {correct, attempted, failed, metrics}; the per-layer host
   table and any findings go to stderr.  See NOTES.md. *)

module M = Paradice.Machine
module C = Paradice.Config
module R = Workloads.Runner
module Setup = Baselines.Setup
module Fleet_load = Workloads.Fleet_load
module Gem = Workloads.Gem
module Rio = Devices.Radeon_ioctl
module Proto = Paradice.Proto

let clock = Monotonic_clock.now
let since t0 = Int64.to_float (Int64.sub (clock ()) t0) *. 1e-9

exception Check_failed of string

let finding fmt = Printf.eprintf ("FINDING: " ^^ fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Exact counters                                                      *)
(* ------------------------------------------------------------------ *)

type counts = {
  legs : int;
  rpcs : int;
  poll_handoffs : int;
  jit : int;
  hypercalls : int;
  copies : int;
  copy_bytes : int;
  grant_hits : int;
  tlb_hits : int;
  tlb_misses : int;
  walks : int;
  spawned : int;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let counts_of m =
  let audit = Hypervisor.Hyp.audit (M.hyp m) in
  let legs, rpcs, poll_handoffs, jit =
    List.fold_left
      (fun (l, r, h, j) (g : M.guest) ->
        let _, jit, (s : Paradice.Chan_pool.stats) =
          Paradice.Cvd_front.stats g.M.frontend
        in
        (l + s.legs, r + s.rpcs, h + s.req_poll_pickups + s.resp_poll_deliveries, j + jit))
      (0, 0, 0, 0) (M.guests m)
  in
  let gc = Gc.quick_stat () in
  {
    legs;
    rpcs;
    poll_handoffs;
    jit;
    hypercalls = audit.Hypervisor.Audit.hypercalls;
    copies = audit.copies_validated;
    copy_bytes = audit.copy_bytes;
    grant_hits = audit.grant_cache_hits;
    tlb_hits = Hypervisor.Audit.tlb_hits audit;
    tlb_misses = Hypervisor.Audit.tlb_misses audit;
    walks = Hypervisor.Audit.walks_performed audit;
    spawned = Sim.Engine.spawned (M.engine m);
    minor_words = Gc.minor_words ();
    promoted_words = gc.Gc.promoted_words;
    minor_gcs = gc.minor_collections;
    major_gcs = gc.major_collections;
  }

let combine f g a b =
  {
    legs = f a.legs b.legs;
    rpcs = f a.rpcs b.rpcs;
    poll_handoffs = f a.poll_handoffs b.poll_handoffs;
    jit = f a.jit b.jit;
    hypercalls = f a.hypercalls b.hypercalls;
    copies = f a.copies b.copies;
    copy_bytes = f a.copy_bytes b.copy_bytes;
    grant_hits = f a.grant_hits b.grant_hits;
    tlb_hits = f a.tlb_hits b.tlb_hits;
    tlb_misses = f a.tlb_misses b.tlb_misses;
    walks = f a.walks b.walks;
    spawned = f a.spawned b.spawned;
    minor_words = g a.minor_words b.minor_words;
    promoted_words = g a.promoted_words b.promoted_words;
    minor_gcs = f a.minor_gcs b.minor_gcs;
    major_gcs = f a.major_gcs b.major_gcs;
  }

let delta ~before ~after = combine ( - ) ( -. ) after before
let add_counts = combine ( + ) ( +. )

let no_counts =
  {
    legs = 0; rpcs = 0; poll_handoffs = 0; jit = 0; hypercalls = 0; copies = 0;
    copy_bytes = 0; grant_hits = 0; tlb_hits = 0; tlb_misses = 0; walks = 0;
    spawned = 0; minor_words = 0.; promoted_words = 0.; minor_gcs = 0; major_gcs = 0;
  }

(* ------------------------------------------------------------------ *)
(* Simulated time per stage (traced reps)                              *)
(* ------------------------------------------------------------------ *)

(* The Trace stage spans, in pipeline order, plus the hypervisor copy
   spans that nest inside back:dispatch (dispatch is reported as self
   time, so the rows tile each op exactly). *)
let stage_rows =
  [
    ("front:declare", "front_declare_us"); ("front:slot_wait", "front_slot_wait_us");
    ("front:publish", "front_publish_us"); ("doorbell:req", "doorbell_req_us");
    ("doorbell:req_poll", "doorbell_req_poll_us"); ("back:drain", "back_drain_us");
    ("back:dispatch", "back_dispatch_us"); ("back:respond", "back_respond_us");
    ("doorbell:resp", "doorbell_resp_us"); ("doorbell:resp_poll", "doorbell_resp_poll_us");
    ("front:complete", "front_complete_us"); ("copy_from_user", "hyp_copy_from_user_us");
    ("copy_to_user", "hyp_copy_to_user_us");
  ]

(* Sim µs per span name, summed over every traced op except opens;
   ["op"] is the ops' own end-to-end spans. *)
let stage_sums tracer =
  let spans = Obs.Trace.completed tracer in
  let opens = Hashtbl.create 64 and sums = Hashtbl.create 16 in
  List.iter
    (fun (c : Obs.Trace.completed) ->
      if c.c_cat = "op" && c.c_name = "open" then Hashtbl.replace opens c.c_trace ())
    spans;
  let add k v =
    Hashtbl.replace sums k (v +. Option.value ~default:0. (Hashtbl.find_opt sums k))
  in
  List.iter
    (fun (c : Obs.Trace.completed) ->
      if c.c_status = "ok" && not (Hashtbl.mem opens c.c_trace) then
        match (c.c_cat, c.c_name) with
        | "op", _ -> add "op" c.c_dur
        | "stage", n -> add n c.c_dur
        | "hyp", (("copy_from_user" | "copy_to_user") as n) ->
            add n c.c_dur;
            add "back:dispatch" (-.c.c_dur)
        | _ -> ())
    spans;
  List.map
    (fun span -> (span, Option.value ~default:0. (Hashtbl.find_opt sums span)))
    ("op" :: List.map fst stage_rows)

(* ------------------------------------------------------------------ *)
(* Reps                                                                *)
(* ------------------------------------------------------------------ *)

type rep = {
  setup_s : float;  (** host seconds to build the machine(s) *)
  window_s : float;  (** host seconds in the timed window *)
  reqs : int;
  ops : int;  (** guest file operations (batched sub-ops each count) *)
  ioctls : int;  (** ioctls dispatched: one generated guard check each *)
  analyzed : int;  (** unbatched ioctls: one frontend analyzer lookup each *)
  descs : int;  (** multi-op descriptors forwarded *)
  stats_adds : int;  (** Sim.Stats.add calls made by the workload itself *)
  failed : int;
  host_us : float array;  (** host µs per request *)
  sim_us : float array;  (** sim µs per request *)
  sim_digest : int64;
  c : counts;
  vms : int;
  depth : int;  (** engine live processes mid-window *)
  stages : (string * float) list;  (** traced: sim µs summed per stage *)
  gap_us : float;  (** traced: Trace.reconcile worst gap *)
  copies_seen : (bool * int) list;  (** traced: driver copies (from_user, len) *)
}

type tally = {
  mutable ops : int;
  mutable ioctls : int;
  mutable analyzed : int;
  mutable descs : int;
}

(* A single-guest closed-loop workload: [start] opens its device files
   inside the simulation and returns one request (raising on a failed
   output check) and a window-end check returning extra failures. *)
type single = {
  devices : Setup.device list;
  config : C.t;
  reqs : int;
  warmup : int;
  start : R.env -> tally -> (unit -> unit) * (unit -> int);
}

let digest_floats xs =
  Array.fold_left Paradice.Fleet.digest_mix_float Paradice.Fleet.digest_empty xs

let single_rep (wl : single) ~native ~traced =
  Gc.compact ();
  let tracer = if traced then Obs.Trace.create () else Obs.Trace.disabled in
  let t0 = clock () in
  let m, env =
    Setup.make ~devices:wl.devices
      (if native then Setup.Native else Setup.Paradice { wl.config with C.tracer })
  in
  let setup_s = since t0 in
  let engine = M.engine m in
  let tally = { ops = 0; ioctls = 0; analyzed = 0; descs = 0 } in
  let n = wl.reqs in
  let host_us = Array.make n 0. and sim_us = Array.make n 0. in
  let failed = ref 0 and depth = ref 0 and copies = ref [] in
  let c = ref no_counts and window_s = ref 0. in
  let one req =
    match req () with
    | () -> ()
    | exception ((Check_failed _ | R.Syscall_failed _ | Oskit.Errno.Unix_error _) as e) ->
        incr failed;
        finding "request failed: %s" (Printexc.to_string e)
  in
  R.run_to_completion env (fun () ->
      let req, window_end = wl.start env tally in
      for _ = 1 to wl.warmup do
        one req
      done;
      tally.ops <- 0;
      tally.ioctls <- 0;
      tally.analyzed <- 0;
      tally.descs <- 0;
      Obs.Trace.reset tracer;
      (* a canonical GC state at the window start makes the promotion
         and collection counts repeat exactly *)
      Gc.full_major ();
      let c0 = counts_of m in
      let w0 = clock () in
      let loop () =
        for i = 0 to n - 1 do
          if i = n / 2 then depth := Sim.Engine.live_processes engine;
          let h0 = clock () and s0 = Sim.Engine.now engine in
          one req;
          host_us.(i) <- Int64.to_float (Int64.sub (clock ()) h0) *. 1e-3;
          sim_us.(i) <- Sim.Engine.now engine -. s0
        done
      in
      if traced then
        Oskit.Uaccess.with_recorder
          (function
            | Oskit.Uaccess.Rec_copy_from { len; _ } -> copies := (true, len) :: !copies
            | Rec_copy_to { len; _ } -> copies := (false, len) :: !copies
            | Rec_insert_pfn _ -> ())
          loop
      else loop ();
      window_s := since w0;
      c := delta ~before:c0 ~after:(counts_of m);
      failed := !failed + window_end ());
  {
    setup_s;
    window_s = !window_s;
    reqs = n + wl.warmup;
    ops = tally.ops;
    ioctls = tally.ioctls;
    analyzed = (if native then 0 else tally.analyzed);
    descs = tally.descs;
    stats_adds = 0;
    failed = !failed;
    host_us;
    sim_us;
    sim_digest = digest_floats sim_us;
    c = !c;
    vms = 1 + List.length (M.guests m);
    depth = !depth;
    stages = (if traced then stage_sums tracer else []);
    gap_us = (if traced then (Obs.Trace.reconcile tracer).Obs.Trace.r_max_gap_us else 0.);
    copies_seen = List.rev !copies;
  }

(* ---- noop_rtt: back-to-back null ioctls, default (interrupt) config ---- *)

let noop_rtt =
  {
    devices = [ Setup.Null ];
    config = C.default;
    reqs = 4000;
    warmup = 50;
    start =
      (fun env tally ->
        let task = R.spawn_app env ~name:"noop-bench" in
        let fd = R.openf env task "/dev/null0" in
        let req () =
          tally.ops <- tally.ops + 1;
          tally.ioctls <- tally.ioctls + 1;
          tally.analyzed <- tally.analyzed + 1;
          let rc = R.ioctl env task fd ~cmd:M.null_ioctl ~arg:0L in
          if rc <> 0 then raise (Check_failed (Printf.sprintf "null ioctl returned %d" rc))
        in
        (req, fun () -> 0));
  }

(* ---- netmap_mop: Netmap_pktgen.run_batched's loop (batch 8, 16
   txsyncs per Rbatch descriptor) under Config.hybrid; one request is
   one descriptor's packets ---- *)

let netmap_batch = 8
let netmap_ops_per_desc = 16

let netmap_mop =
  {
    devices = [ Setup.Netmap ];
    config = C.hybrid;
    reqs = 600;
    warmup = 20;
    start =
      (fun env tally ->
        let module Nm = Devices.Netmap_drv in
        let frontend =
          match M.guests env.R.machine with
          | g :: _ -> g.M.frontend
          | [] -> failwith "netmap_mop needs a Paradice guest"
        in
        let task = R.spawn_app env ~name:"pktgen-batch" in
        let fd = R.openf env task "/dev/netmap" in
        let arg = Oskit.Task.alloc_buf task 16 in
        let (_ : int) = R.ioctl env task fd ~cmd:Nm.nioc_regif ~arg:(Int64.of_int arg) in
        let num_slots = R.u32 task ~gva:(arg + 4) in
        let page = Memory.Addr.page_size in
        let ring_len =
          Memory.Addr.align_up (((1 + (num_slots * 2048 / page)) * page) + page)
        in
        let gva = R.mmap env task fd ~len:ring_len ~pgoff:0 in
        let (_ : bytes) = Oskit.Vfs.user_read env.R.kernel task ~gva ~len:16 in
        let file = Hashtbl.find task.Oskit.Defs.fds fd in
        let read_hdr off =
          Int32.to_int
            (Bytes.get_int32_le (Oskit.Vfs.user_read env.R.kernel task ~gva:(gva + off) ~len:4) 0)
        in
        let write_hdr off v =
          let b = Bytes.create 4 in
          Bytes.set_int32_le b 0 (Int32.of_int v);
          Oskit.Vfs.user_write env.R.kernel task ~gva:(gva + off) b
        in
        let nm = Option.get env.R.machine.M.netmap in
        let tx_base = Nm.tx_packets nm in
        let cur = ref 0 and sent = ref 0 in
        let slot_bytes = Bytes.create 4 in
        Bytes.set_int32_le slot_bytes 0 64l;
        let flush pending =
          if pending > 0 then begin
            let rcs =
              Paradice.Cvd_front.batch_ioctl frontend task file
                (List.init pending (fun _ -> (Nm.nioc_txsync, 0L)))
            in
            tally.ops <- tally.ops + pending;
            tally.ioctls <- tally.ioctls + pending;
            tally.descs <- tally.descs + 1;
            if List.exists (fun rc -> rc <> 0) rcs then raise (Check_failed "txsync rc")
          end
        in
        let req () =
          let issued = ref 0 and pending = ref 0 in
          while !issued + !pending < netmap_ops_per_desc do
            let space = (read_hdr Nm.hdr_tail - !cur - 1 + num_slots) mod num_slots in
            let n = min netmap_batch space in
            if n <= 0 then begin
              flush !pending;
              issued := !issued + !pending;
              pending := 0;
              tally.ops <- tally.ops + 1;
              let (_ : Oskit.Defs.poll_result) =
                R.poll env task fd ~want_in:false ~want_out:true ~timeout:1_000_000.
              in
              ()
            end
            else begin
              for _ = 1 to n do
                Oskit.Vfs.user_write env.R.kernel task
                  ~gva:(gva + Nm.slots_off + (!cur * Nm.slot_bytes))
                  slot_bytes;
                cur := (!cur + 1) mod num_slots
              done;
              Sim.Engine.wait (float_of_int n *. Workloads.Netmap_pktgen.per_packet_fill_us);
              write_hdr Nm.hdr_cur !cur;
              sent := !sent + n;
              incr pending
            end
          done;
          flush !pending
        in
        (* the NIC must put every published packet on the wire *)
        let window_end () =
          let waits = ref 0 in
          while Nm.tx_packets nm - tx_base < !sent && !waits < 10_000 do
            Sim.Engine.wait 100.;
            incr waits
          done;
          let on_wire = Nm.tx_packets nm - tx_base in
          if on_wire = !sent then 0
          else begin
            finding "netmap: %d packets published, %d transmitted" !sent on_wire;
            1
          end
        in
        (req, window_end));
  }

(* ---- gpu_frames: Gfx.run's Tremulous frame on radeon at 800x600 ---- *)

let gpu_frames =
  let profile = Workloads.Gfx.tremulous and width = 800 and height = 600 in
  {
    devices = [ Setup.Gpu ];
    config = C.default;
    reqs = 150;
    warmup = 5;
    start =
      (fun env tally ->
        let task = R.spawn_app env ~name:("gfx-" ^ profile.name) in
        let fd = Gem.open_gpu env task in
        let texture = Gem.create env task fd ~size:(256 * 1024) ~domain:Rio.domain_gtt in
        let tex_va = Gem.map env task fd texture in
        let radeon = (Option.get env.R.machine.M.gpu).M.radeon in
        let ioctls = profile.state_ioctls_per_frame + 2 in
        let req () =
          for _ = 1 to profile.state_ioctls_per_frame do
            if Gem.query_info env task fd ~request:Rio.info_accel_working <> 1 then
              raise (Check_failed "INFO accel_working")
          done;
          for i = 1 to profile.texture_uploads_per_frame do
            Oskit.Vfs.user_write env.R.kernel task ~gva:(tex_va + (i * 64)) (Bytes.make 64 '\001')
          done;
          let ib = [ Rio.pkt_draw; profile.vertices; width; height; 1; 0 ] in
          let fence = Gem.submit_cs env task fd ~ib_words:ib ~relocs:[| texture |] in
          Gem.wait_idle env task fd;
          tally.ops <- tally.ops + ioctls;
          tally.ioctls <- tally.ioctls + ioctls;
          tally.analyzed <- tally.analyzed + ioctls;
          if Devices.Radeon_drv.completed_fence radeon < fence then
            raise (Check_failed (Printf.sprintf "fence %d never signalled" fence))
        in
        (req, fun () -> 0));
  }

(* ------------------------------------------------------------------ *)
(* fleet_zipf                                                          *)
(* ------------------------------------------------------------------ *)

let fleet_guests = 256
let fleet_shards = 4
let fleet_base_ops = 24

let fleet_specs seed =
  let ops = Fleet_load.zipf_ops ~guests:fleet_guests ~base:fleet_base_ops ~alpha:1.0 in
  Fleet_load.make_specs ~shards:fleet_shards ~seed:(Int64.of_int seed) ~ops ()

type shard = {
  s_build_s : float;
  s_window_s : float;
  s_ok : int;
  s_err : int;
  s_digest : int64;
  s_sim_us : float array;  (** sim µs per ioctl, in completion order *)
  s_gaps : float array;  (** host µs between successive completions *)
  s_c : counts;
  s_vms : int;
  s_depth : int;
  s_tracer : Obs.Trace.t;
}

(* Fleet_load.run_shard, instrumented from outside: the same machine
   sizes (Fleet_load's 8 MiB guests and 32 MiB driver VM), seeding
   chain, jitter and per-op digest, so its digest must equal the
   library's; construction is timed apart from the ops. *)
let fleet_shard ~traced (spec : Fleet_load.spec) =
  let tracer = if traced then Obs.Trace.create () else Obs.Trace.disabled in
  let config = { spec.Fleet_load.config with C.tracer } in
  let t0 = clock () in
  let m = M.create ~config ~driver_mem_mib:32 () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let n = Array.length spec.globals in
  let guests =
    Array.init n (fun i ->
        M.add_guest m ~mem_mib:8 ~name:(Printf.sprintf "g%d" spec.globals.(i)) ())
  in
  let build_s = since t0 in
  let engine = M.engine m in
  let shard_seed =
    Sim.Rng.next_int64 (Sim.Rng.derive ~seed:spec.master_seed ~index:spec.shard_id)
  in
  let total = Array.fold_left ( + ) 0 spec.ops in
  let done_ns = Array.make (total + 1) 0. and sim_us = Array.make total 0. in
  let k = ref 0 and depth = ref 0 in
  let ok = Array.make n 0 and err = Array.make n 0 in
  let lat = Array.init n (fun i -> Sim.Stats.create (Printf.sprintf "g%d" spec.globals.(i))) in
  let digest = ref Paradice.Fleet.digest_empty in
  Gc.full_major ();
  let c0 = counts_of m in
  let w0 = clock () in
  Array.iteri
    (fun i (g : M.guest) ->
      let global = spec.globals.(i) in
      Sim.Engine.spawn engine ~name:(Printf.sprintf "fleet-g%d" global) (fun () ->
          let kern = g.M.kernel in
          let app = M.spawn_app m kern ~name:(Printf.sprintf "app%d" global) in
          let rng = Sim.Rng.derive ~seed:shard_seed ~index:i in
          match Oskit.Vfs.openf kern app Fleet_load.device_path with
          | Error e ->
              finding "fleet g%d: open failed: %s" global (Oskit.Errno.to_string e);
              err.(i) <- spec.ops.(i)
          | Ok fd ->
              for _ = 1 to spec.ops.(i) do
                Sim.Engine.wait (Sim.Rng.float rng 20.);
                let t = Sim.Engine.now engine in
                (match Oskit.Vfs.ioctl kern app fd ~cmd:M.null_ioctl ~arg:0L with
                | Ok 0 ->
                    ok.(i) <- ok.(i) + 1;
                    Sim.Stats.add lat.(i) (Sim.Engine.now engine -. t);
                    sim_us.(!k) <- Sim.Engine.now engine -. t
                | Ok _ | Error _ -> err.(i) <- err.(i) + 1);
                digest :=
                  Paradice.Fleet.digest_mix_float
                    (Paradice.Fleet.digest_mix !digest (Int64.of_int global))
                    (Sim.Engine.now engine);
                incr k;
                if !k = total / 2 then depth := Sim.Engine.live_processes engine;
                done_ns.(!k) <- Int64.to_float (Int64.sub (clock ()) w0)
              done))
    guests;
  Sim.Engine.run engine;
  let window_s = since w0 in
  let c = delta ~before:c0 ~after:(counts_of m) in
  {
    s_build_s = build_s;
    s_window_s = window_s;
    s_ok = Array.fold_left ( + ) 0 ok;
    s_err = Array.fold_left ( + ) 0 err;
    s_digest = !digest;
    s_sim_us = Array.sub sim_us 0 !k;
    s_gaps = Array.init !k (fun j -> (done_ns.(j + 1) -. done_ns.(j)) *. 1e-3);
    s_c = c;
    s_vms = n + 1;
    s_depth = !depth;
    s_tracer = tracer;
  }

(* The library's own run of each shard must give the same fingerprint,
   op count and error count as the instrumented one. *)
let fleet_library_check specs (shards : shard array) =
  Array.fold_left
    (fun bad (spec : Fleet_load.spec) ->
      let r = Fleet_load.run_shard spec and s = shards.(spec.shard_id) in
      if r.Fleet_load.r_digest = s.s_digest && r.r_ok = s.s_ok && r.r_err = s.s_err then bad
      else begin
        finding "fleet shard %d: library digest/ok/err %Lx/%d/%d, benchmark %Lx/%d/%d"
          spec.shard_id r.r_digest r.r_ok r.r_err s.s_digest s.s_ok s.s_err;
        bad + 1
      end)
    0 specs

let fleet_rep ~seed ~traced ~check_library =
  Gc.compact ();
  let specs = fleet_specs seed in
  let shards = Array.map (fleet_shard ~traced) specs in
  let offered = Array.fold_left (fun acc s -> acc + Array.fold_left ( + ) 0 s.Fleet_load.ops) 0 specs in
  let ok = Array.fold_left (fun acc s -> acc + s.s_ok) 0 shards in
  let err = Array.fold_left (fun acc s -> acc + s.s_err) 0 shards in
  if ok <> offered || err <> 0 then
    finding "fleet: %d ops offered, %d ok, %d failed" offered ok err;
  let lib_bad = if check_library then fleet_library_check specs shards else 0 in
  let sum f = Array.fold_left (fun acc s -> acc +. f s) 0. shards in
  let digest =
    Array.fold_left (fun d s -> Paradice.Fleet.digest_mix d s.s_digest) Paradice.Fleet.digest_empty shards
  in
  let stages =
    if not traced then []
    else
      let per = Array.map (fun s -> stage_sums s.s_tracer) shards in
      List.map (fun (span, _) -> (span, Array.fold_left (fun acc p -> acc +. List.assoc span p) 0. per)) per.(0)
  in
  {
    setup_s = sum (fun s -> s.s_build_s);
    window_s = sum (fun s -> s.s_window_s);
    reqs = offered;
    ops = offered;
    ioctls = offered;
    analyzed = offered;
    descs = 0;
    stats_adds = ok;
    failed = max (offered - ok) err + (if lib_bad > 0 then offered else 0);
    host_us = Array.concat (Array.to_list (Array.map (fun s -> s.s_gaps) shards));
    sim_us = Array.concat (Array.to_list (Array.map (fun s -> s.s_sim_us) shards));
    sim_digest = digest;
    c = Array.fold_left (fun acc s -> add_counts acc s.s_c) no_counts shards;
    vms = Array.fold_left (fun acc s -> acc + s.s_vms) 0 shards;
    depth = Array.fold_left (fun acc s -> max acc s.s_depth) 0 shards;
    stages;
    gap_us =
      (if traced then
         Array.fold_left (fun acc s -> Float.max acc (Obs.Trace.reconcile s.s_tracer).r_max_gap_us) 0. shards
       else 0.);
    copies_seen = [];
  }

(* ------------------------------------------------------------------ *)
(* Workload table                                                      *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  rep : native:bool -> traced:bool -> first:bool -> rep;
  has_native : bool;  (** stack.paravirt_us_per_op applies *)
  notify : C.t;  (** notification mode of its channels *)
  (* the ioctls and RPCs (request, response) of one request, as the
     workload issues them *)
  rpc_pairs : Layers.arena -> (string * int * int64) list * (Proto.request * Proto.response) list;
  poll_rpcs : bool;  (** RPCs beyond its descriptors are forwarded polls *)
  table : Analyzer.Extract.t option;  (** the export's analyzer table *)
}

let rioctl (_, cmd, arg) = Proto.Rioctl { vfd = 3; cmd; arg }
let singleton_rpcs io = (io, List.map (fun i -> (rioctl i, Proto.Rok 0)) io)
let null_rpcs _ = singleton_rpcs [ ("test", M.null_ioctl, 0L) ]

let single_workload ?(poll_rpcs = false) name (wl : single) ~has_native ~rpc_pairs ~table =
  {
    name;
    rep = (fun ~native ~traced ~first:_ -> single_rep wl ~native ~traced);
    has_native;
    notify = wl.config;
    rpc_pairs;
    poll_rpcs;
    table;
  }

(* One Tremulous frame's ioctls with Gem's argument structs, laid out
   in the replay arena exactly as Gem builds them. *)
let gpu_ioctls (a : Layers.arena) =
  let put32 addr v = Layers.put32 a ~addr v and put64 addr v = Layers.put64 a ~addr v in
  let info () =
    let value = Layers.alloc a 8 and arg = Layers.alloc a Rio.info_size in
    put32 (arg + Rio.info_off_request) Rio.info_accel_working;
    put64 (arg + Rio.info_off_value_ptr) value;
    ("gpu", Rio.info, Int64.of_int arg)
  in
  let cs =
    let ib_words = [ Rio.pkt_draw; 38000; 800; 600; 1; 0 ] in
    let ib = Layers.alloc a (4 * List.length ib_words) in
    List.iteri (fun i w -> put32 (ib + (4 * i)) w) ib_words;
    let relocs = Layers.alloc a 4 in
    put32 relocs 1;
    let chunk id len data =
      let h = Layers.alloc a Rio.cs_chunk_header_size in
      put32 (h + Rio.chunk_off_id) id;
      put32 (h + Rio.chunk_off_length_dw) len;
      put64 (h + Rio.chunk_off_data) data;
      h
    in
    let h_ib = chunk Rio.chunk_id_ib (List.length ib_words) ib in
    let h_re = chunk Rio.chunk_id_relocs 1 relocs in
    let ptrs = Layers.alloc a 16 in
    put64 ptrs h_ib;
    put64 (ptrs + 8) h_re;
    let arg = Layers.alloc a Rio.cs_size in
    put32 (arg + Rio.cs_off_num_chunks) 2;
    put64 (arg + Rio.cs_off_chunks_ptr) ptrs;
    ("gpu", Rio.cs, Int64.of_int arg)
  in
  let wait = ("gpu", Rio.gem_wait_idle, Int64.of_int (Layers.alloc a Rio.gem_wait_idle_size)) in
  List.init Workloads.Gfx.tremulous.state_ioctls_per_frame (fun _ -> info ()) @ [ cs; wait ]

let workloads seed =
  [
    single_workload "noop_rtt" noop_rtt ~has_native:true ~table:None ~rpc_pairs:null_rpcs;
    single_workload "netmap_mop" netmap_mop ~poll_rpcs:true ~has_native:false ~table:None ~rpc_pairs:(fun _ ->
        let io = List.init netmap_ops_per_desc (fun _ -> ("net", Devices.Netmap_drv.nioc_txsync, 0L)) in
        ( io,
          [ ( Proto.Rbatch (List.map rioctl io),
              Proto.Rbatch_reply (List.map (fun _ -> Proto.Rok 0) io) ) ] ));
    single_workload "gpu_frames" gpu_frames ~has_native:true
      ~table:(Some (Analyzer.Extract.analyze Analyzer.Radeon_ir.driver_3_2_0))
      ~rpc_pairs:(fun a -> singleton_rpcs (gpu_ioctls a));
    {
      name = "fleet_zipf";
      rep = (fun ~native:_ ~traced ~first -> fleet_rep ~seed ~traced ~check_library:first);
      has_native = false;
      notify = C.default;
      rpc_pairs = null_rpcs;
      poll_rpcs = false;
      table = None;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)
(* ------------------------------------------------------------------ *)

let median = Layers.median

(* Linear-interpolation percentile of pooled samples. *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let per x n = if n = 0 then 0. else float_of_int x /. float_of_int n
let host_us_per_op (r : rep) = r.window_s *. 1e6 /. float_of_int (max 1 r.ops)

(* Exact-repeat guard: every rep of one seed must reproduce the
   reference rep's simulated results and allocation counts. *)
let same_exact (a : rep) (b : rep) = a.sim_digest = b.sim_digest && a.ops = b.ops && a.c = b.c

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         let v = if Float.is_finite v then v else 0. in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

let print_result ~attempted ~failed ~correct metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable reference : rep option;
  mutable peak_heap_words : int;  (** heap high-water mark after the reference rep *)
}

(* Account one rep: its requests, its failures, and exact-repeat drift
   against the run's first timed untraced rep (traced reps are checked
   on their simulated results only: they allocate spans). *)
let account run ~traced (r : rep) =
  run.attempted <- run.attempted + r.reqs;
  run.failed <- run.failed + r.failed;
  match run.reference with
  | None ->
      if not traced then begin
        run.reference <- Some r;
        run.peak_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words
      end
  | Some ref_ ->
      let ok = if traced then ref_.sim_digest = r.sim_digest else same_exact ref_ r in
      if not ok then begin
        finding "%s rep drifted from the reference rep of this seed (%s)"
          (if traced then "traced" else "untraced")
          (if ref_.sim_digest <> r.sim_digest then "simulated latencies"
           else "op, allocation or layer counts");
        run.failed <- run.failed + 1
      end

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                              *)
(* ------------------------------------------------------------------ *)

(* Host speed on this class of VM drifts by tens of percent within
   minutes while CPU time tracks wall time (NOTES.md), so the drift is
   the machine, not preemption.  A fixed kernel of stdlib hashing,
   map updates and short-lived allocation, independent of the code
   under test, runs next to every rep; host figures are scaled to a
   host on which the kernel takes [reference_cal_s].  The simulator
   slows [sensitivity] times as much as the kernel (log-log slope of
   simulator against kernel time, 1.17-1.51 over eight series of 20
   runs), so the scale is (reference / kernel) ** sensitivity. *)
let reference_cal_s = 0.0125
let sensitivity = 1.25

module Imap = Map.Make (Int)

let calibration_kernel () =
  let t0 = clock () in
  let h = Hashtbl.create 64 and m = ref Imap.empty and acc = ref 0 in
  for i = 0 to 30_000 do
    let k = i * 7919 land 4095 in
    Hashtbl.replace h k (i, Bytes.make 16 'x');
    m := Imap.add k i !m;
    (match Hashtbl.find_opt h (i * 31 land 4095) with
    | Some (v, _) -> acc := !acc + v
    | None -> ());
    match Imap.find_opt (i * 17 land 4095) !m with Some v -> acc := !acc + v | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  since t0

(* [f ()] between two kernel runs; returns its result, the factor that
   scales its host times to the reference host, and the kernel time.
   Each kernel run starts on a freshly compacted heap, so its time does
   not depend on the garbage (a whole dead machine) that [f] leaves. *)
let calibrated f =
  Gc.compact ();
  let c0 = calibration_kernel () in
  let x = f () in
  Gc.compact ();
  let cal = (c0 +. calibration_kernel ()) /. 2. in
  (x, Float.pow (reference_cal_s /. cal) sensitivity, cal)

type timed = { r : rep; scale : float; cal_s : float }

let timed_rep (wl : workload) ~native ~traced =
  let r, scale, cal_s = calibrated (fun () -> wl.rep ~native ~traced ~first:false) in
  { r; scale; cal_s }

let host_us_per_op t = host_us_per_op t.r *. t.scale

(* A new run, after its warm-up rep.  The warm-up is untimed and is no
   exact-repeat reference, but its output checks count like any rep's;
   for fleet_zipf it is the rep that runs the library check. *)
let start_run (wl : workload) =
  let w = wl.rep ~native:false ~traced:false ~first:true in
  { attempted = w.reqs; failed = w.failed; reference = None; peak_heap_words = 0 }

let end_to_end (wl : workload) ~seconds =
  let run = start_run wl in
  let t0 = clock () in
  let reps = ref [] in
  while List.length !reps < 3 || since t0 < seconds do
    let t = timed_rep wl ~native:false ~traced:false in
    account run ~traced:false t.r;
    reps := t :: !reps
  done;
  let reps = !reps in
  let r0 = Option.get run.reference in
  (* each rep's percentile under its own calibration, then the median
     over reps, so a rep whose calibration missed a speed change moves
     the figure no more than it moves host_ops_per_s *)
  let host_req_us p = median (List.map (fun t -> t.scale *. percentile t.r.host_us p) reps) in
  let metrics =
    [
      ("host_ops_per_s", "1/s", median (List.map (fun t -> 1e6 /. host_us_per_op t) reps));
      ("host_req_us_p50", "us", host_req_us 50.);
      ("host_req_us_p90", "us", host_req_us 90.);
      ("sim_req_us_p50", "sim_us", percentile r0.sim_us 50.);
      ("sim_req_us_p99", "sim_us", percentile r0.sim_us 99.);
      ("alloc_words_per_op", "words", r0.c.minor_words /. float_of_int r0.ops);
      ("promoted_words_per_op", "words", r0.c.promoted_words /. float_of_int r0.ops);
      ( "peak_heap_mb",
        "MB",
        float_of_int (run.peak_heap_words * (Sys.word_size / 8)) /. 1048576. );
      ("setup_s", "s", median (List.map (fun t -> t.r.setup_s *. t.scale) reps));
    ]
  in
  (* the unscaled figures, so a reader can undo the calibration *)
  let cal_ms = List.map (fun t -> 1e3 *. t.cal_s) reps in
  Printf.eprintf
    "%s: %d reps, %d requests/rep, %d ops/rep, %d host samples/rep, %d/%d failed\n\
    \  calibration kernel ms: median %.3f, min %.3f, max %.3f\n\
    \  raw (unscaled) medians: host_ops_per_s %.0f, setup_s %.6f\n%!"
    wl.name (List.length reps) r0.reqs r0.ops (Array.length r0.host_us) run.failed run.attempted
    (median cal_ms) (List.fold_left Float.min infinity cal_ms)
    (List.fold_left Float.max 0. cal_ms)
    (median (List.map (fun t -> float_of_int t.r.ops /. t.r.window_s) reps))
    (median (List.map (fun t -> t.r.setup_s) reps));
  (run, metrics)

let per_layer (wl : workload) ~seconds =
  let run = start_run wl in
  (* interleaved so machine-speed drift hits every kind alike *)
  let plain = ref [] and traced = ref [] and native = ref [] in
  let t0 = clock () in
  let rep_budget = 0.6 *. seconds in
  while List.length !traced < 2 || since t0 < rep_budget do
    let p = timed_rep wl ~native:false ~traced:false in
    account run ~traced:false p.r;
    plain := p :: !plain;
    let t = timed_rep wl ~native:false ~traced:true in
    account run ~traced:true t.r;
    traced := t :: !traced;
    if wl.has_native then begin
      let n = timed_rep wl ~native:true ~traced:false in
      run.attempted <- run.attempted + n.r.reqs;
      run.failed <- run.failed + n.r.failed;
      native := n :: !native
    end
  done;
  let r0 = Option.get run.reference and t0r = (List.hd !traced).r in
  let ops = r0.ops in
  let c = r0.c in
  let host_op = median (List.map host_us_per_op !plain) in
  let traced_op = median (List.map host_us_per_op !traced) in
  (* standalone replays, sharing what is left of the run; each is
     scaled by a calibration around it like the reps *)
  let budget_s = Float.max 0.05 ((seconds -. since t0) /. 9.) in
  let arena = Layers.arena () in
  let ioctls, pairs = wl.rpc_pairs arena in
  let request, response = List.hd pairs in
  let copies = if t0r.copies_seen = [] then [ (true, 8) ] else t0r.copies_seen in
  let ns f =
    let x, scale, _ = calibrated f in
    x *. scale
  in
  let event_ns = ns (fun () -> Layers.event_ns ~budget_s ~depth:r0.depth) in
  let switch_ns = ns (fun () -> Layers.switch_ns ~budget_s ~depth:r0.depth) in
  let add_ns = ns (fun () -> Layers.stats_add_ns ~budget_s r0.sim_us) in
  let codec_ns =
    let per_desc = ns (fun () -> Layers.codec_ns ~budget_s ~config:wl.notify pairs) in
    let polls = c.rpcs - r0.descs in
    if not wl.poll_rpcs || polls <= 0 then per_desc
    else
      (* the ring-full polls ride their own RPCs: weight by the mix *)
      let poll =
        ( Proto.Rpoll { vfd = 3; want_in = false; want_out = true; timeout_us = 0. },
          Proto.Rpoll_reply { pollin = false; pollout = true } )
      in
      let per_poll = ns (fun () -> Layers.codec_ns ~budget_s ~config:wl.notify [ poll ]) in
      ((per_desc *. float_of_int r0.descs) +. (per_poll *. float_of_int polls))
      /. float_of_int c.rpcs
  in
  let rpc_ns = ns (fun () -> Layers.rpc_ns ~budget_s ~config:wl.notify ~request ~response) in
  let guard_ns = ns (fun () -> Layers.guard_ns ~budget_s ~config:wl.notify ~arena ioctls) in
  let ops_for_ns = ns (fun () -> Layers.ops_for_ns ~budget_s ~table:wl.table ~arena ioctls) in
  let copy_ns = ns (fun () -> Layers.copy_ns ~budget_s copies) in
  let per_op x = per x ops in
  (* host µs per op of each layer: ns per call x calls per op *)
  let layers =
    [
      ("core.channel (Channel.rpc, incl. its engine work)", rpc_ns *. per_op c.rpcs);
      ("core.proto (codec + validate)", codec_ns *. per_op c.rpcs);
      ("core.ioctl_guard", guard_ns *. per_op r0.ioctls);
      ("analyzer (frontend ops_for)", ops_for_ns *. per_op r0.analyzed);
      ("hypervisor (grant-checked copies)", copy_ns *. per_op c.copies);
      ("sim.stats (workload latency adds)", add_ns *. per_op r0.stats_adds);
    ]
    |> List.map (fun (n, ns) -> (n, ns *. 1e-3))
  in
  let layers_us = List.fold_left (fun acc (_, us) -> acc +. us) 0. layers in
  let paravirt =
    if !native = [] then 0. else host_op -. median (List.map host_us_per_op !native)
  in
  Printf.eprintf "%s per-layer host table (µs/op; measured %.3f µs/op untraced)\n" wl.name host_op;
  List.iter (fun (n, us) -> Printf.eprintf "  %-52s %9.3f\n" n us) layers;
  Printf.eprintf "  %-52s %9.3f\n" "layers (sum of the rows above)" layers_us;
  Printf.eprintf "  %-52s %9.3f\n" "unexplained (measured - layers)" (host_op -. layers_us);
  if wl.has_native then Printf.eprintf "  %-52s %9.3f\n" "paravirt (Paradice - Native)" paravirt;
  Printf.eprintf "  engine: event %.1f ns, switch %.1f ns at depth %d (inside core.channel)\n%!"
    event_ns switch_ns r0.depth;
  (* simulated time per request by stage, from the traced reps *)
  let reqs = float_of_int (Array.length t0r.sim_us) in
  let per_req span = List.assoc span t0r.stages /. reqs in
  let stage_us = List.map (fun (span, name) -> (name, per_req span)) stage_rows in
  let stage_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. stage_us in
  let sim_mean = Array.fold_left ( +. ) 0. r0.sim_us /. float_of_int (Array.length r0.sim_us) in
  (* guest-side time: the part of a request outside its forwarded ops *)
  let guest_us = sim_mean -. per_req "op" in
  let attempted = max 1 run.attempted in
  let metrics =
    [
      ("core.chan_pool.legs_per_op", "count", per_op c.legs);
      ("core.chan_pool.poll_handoffs_per_op", "count", per_op c.poll_handoffs);
      ("core.chan_pool.ops_per_rpc", "count", per ops c.rpcs);
      ("analyzer.jit_slices_per_op", "count", per_op c.jit);
      ("hypervisor.hypercalls_per_op", "count", per_op c.hypercalls);
      ("hypervisor.copy_bytes_per_op", "bytes", per_op c.copy_bytes);
      ("hypervisor.grant_cache_hit_ratio", "ratio", per c.grant_hits c.copies);
      ("memory.tlb_hit_ratio", "ratio", per c.tlb_hits (c.tlb_hits + c.tlb_misses));
      ("memory.walks_per_op", "count", per_op c.walks);
      ("sim.engine.spawned_per_op", "count", per_op c.spawned);
      ("gc.minor_collections_per_kop", "count", 1000. *. per_op c.minor_gcs);
      ("gc.major_collections_per_kop", "count", 1000. *. per_op c.major_gcs);
      ("sim.engine.event_ns", "ns", event_ns);
      ("sim.engine.switch_ns", "ns", switch_ns);
      ("sim.stats.add_ns", "ns", add_ns);
      ("core.proto.codec_ns", "ns", codec_ns);
      ("core.channel.rpc_ns", "ns", rpc_ns);
      ("core.ioctl_guard.check_ns", "ns", guard_ns);
      ("analyzer.ops_for_ns", "ns", ops_for_ns);
      ("hypervisor.copy_ns", "ns", copy_ns);
      ( "machine.build_s_per_vm",
        "s",
        median (List.map (fun t -> t.r.setup_s *. t.scale /. float_of_int t.r.vms) !plain) );
      ("stack.unexplained_us_per_op", "us", host_op -. layers_us);
      ("stack.paravirt_us_per_op", "us", paravirt);
      ("obs.trace_overhead_ratio", "ratio", traced_op /. host_op);
      ("host.calibration_ms", "ms", 1e3 *. median (List.map (fun t -> t.cal_s) !plain));
    ]
    @ List.map (fun (name, v) -> ("sim_stage." ^ name, "sim_us", v)) stage_us
    @ [
        ("sim_stage.guest_us", "sim_us", guest_us);
        ("sim_stage.reconcile_gap_us", "sim_us", t0r.gap_us);
        ("failed_op_ratio", "ratio", per run.failed attempted);
      ]
  in
  if t0r.gap_us <> 0. || Float.abs (stage_sum +. guest_us -. sim_mean) > 1e-6 *. sim_mean
  then begin
    finding "%s: stage rows do not tile the request (reconcile gap %.6f, rows %.6f, mean %.6f sim µs)"
      wl.name t0r.gap_us (stage_sum +. guest_us) sim_mean;
    run.failed <- run.failed + 1
  end;
  (run, metrics)

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME noop_rtt|netmap_mop|gpu_frames|fleet_zipf");
      ("--seed", Arg.Set_int seed, "N workload seed (fleet_zipf master seed)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) (workloads !seed) with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some wl ->
      let run, metrics =
        if !trace = 0 then end_to_end wl ~seconds:!seconds else per_layer wl ~seconds:!seconds
      in
      print_result ~attempted:(max 1 run.attempted) ~failed:run.failed ~correct:(run.failed = 0)
        metrics
