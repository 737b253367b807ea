(* Host cost per call of single layers, measured from outside: each
   function below replays a workload's own inputs into one layer's
   public entry points on a standalone instance and returns median host
   nanoseconds per call over repeated batches. *)

module C = Paradice.Config
module Proto = Paradice.Proto
module Hyp = Hypervisor.Hyp
module Vm = Hypervisor.Vm
module Grant = Hypervisor.Grant_table

let clock = Monotonic_clock.now
let since_ns t0 = Int64.to_float (Int64.sub (clock ()) t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Run [batch] (which makes [calls] calls) once to warm up, then
   repeatedly for [budget_s] host seconds (at least 5 batches); median
   ns per call. *)
let per_call ~budget_s ~calls batch =
  batch ();
  let t_end = Int64.add (clock ()) (Int64.of_float (budget_s *. 1e9)) in
  let samples = ref [] and n = ref 0 in
  while !n < 5 || Int64.compare (clock ()) t_end < 0 do
    let t0 = clock () in
    batch ();
    samples := (since_ns t0 /. float_of_int calls) :: !samples;
    incr n
  done;
  median !samples

(* ---- sim.engine ---- *)

(* [depth] events parked far in the future give the heap the workload's
   queue depth while the measured events run. *)
let engine_with_depth depth =
  let e = Sim.Engine.create () in
  for i = 1 to depth do
    Sim.Engine.at e ~delay:(1e15 +. float_of_int i) ignore
  done;
  e

let event_ns ~budget_s ~depth =
  let n = 20_000 in
  per_call ~budget_s ~calls:n (fun () ->
      let e = engine_with_depth depth in
      let left = ref n in
      let rec tick () =
        decr left;
        if !left > 0 then Sim.Engine.at e ~delay:1. tick
      in
      Sim.Engine.at e ~delay:1. tick;
      Sim.Engine.run ~until:(float_of_int (n + 10)) e)

(* A spawned process that suspends and resumes [n] times through the
   engine's effect handler. *)
let switch_ns ~budget_s ~depth =
  let n = 20_000 in
  per_call ~budget_s ~calls:n (fun () ->
      let e = engine_with_depth depth in
      Sim.Engine.spawn e (fun () ->
          for _ = 1 to n do
            Sim.Engine.wait 1.
          done);
      Sim.Engine.run ~until:(float_of_int (n + 10)) e)

(* ---- sim.stats ---- *)

let stats_add_ns ~budget_s samples =
  let n = Array.length samples in
  per_call ~budget_s ~calls:n (fun () ->
      let s = Sim.Stats.create "replay" in
      Array.iter (Sim.Stats.add s) samples)

(* ---- core.proto ---- *)

let limits_of (config : C.t) =
  {
    Paradice.Wire_spec.max_transfer_bytes = config.C.max_transfer_bytes;
    poll_timeout_cap_us = config.C.poll_timeout_cap_us;
    grant_capacity = Grant.capacity;
  }

(* Encode, decode and sanitize each request, then encode and decode its
   response: the codec work of one RPC, averaged over [pairs]. *)
let codec_ns ~budget_s ~config pairs =
  let limits = limits_of config in
  let n = List.length pairs in
  per_call ~budget_s ~calls:n (fun () ->
      List.iter
        (fun (req, resp) ->
          let wire = Proto.encode_request ~grant_ref:1 ~pid:1 req in
          (match Proto.validate_limits ~limits (Proto.decode_request wire) with
          | Ok _ -> ()
          | Error v -> failwith ("codec replay rejected " ^ v.Proto.field));
          ignore (Proto.decode_response (Proto.encode_response resp) : Proto.response))
        pairs)

(* ---- core.channel ---- *)

let mib = 1024 * 1024

let two_vms () =
  let hyp = Hyp.create (Memory.Phys_mem.create ()) in
  let guest = Hyp.create_vm hyp ~name:"guest" ~kind:Vm.Guest ~mem_bytes:(4 * mib) in
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(4 * mib) in
  (hyp, guest, driver)

(* Channel.rpc against a bare next_request/respond loop on a standalone
   ring, in the workload's notification mode. *)
let rpc_ns ~budget_s ~config ~request ~response =
  let hyp, guest_vm, driver_vm = two_vms () in
  let e = Sim.Engine.create () in
  let ch =
    Paradice.Channel.create ~uid:1 e ~config ~phys:(Hyp.phys hyp) ~guest_vm ~driver_vm
  in
  let req = Proto.encode_request ~grant_ref:1 ~pid:1 request
  and resp = Proto.encode_response response in
  Sim.Engine.spawn e (fun () ->
      let rec serve () =
        match Paradice.Channel.next_request ch with
        | Some (slot, _) ->
            Paradice.Channel.respond ch ~slot resp;
            serve ()
        | None -> ()
      in
      serve ());
  let n = 2_000 in
  let ns =
    per_call ~budget_s ~calls:n (fun () ->
        Sim.Engine.spawn e (fun () ->
            for _ = 1 to n do
              ignore (Paradice.Channel.rpc ch (Bytes.copy req) : bytes)
            done);
        Sim.Engine.run e)
  in
  Paradice.Channel.kill ch;
  Sim.Engine.run e;
  ns

(* ---- guest argument memory for the ioctl replays ---- *)

type arena = { base : int; buf : bytes; mutable top : int }

let arena () = { base = 0x40_0000; buf = Bytes.make (64 * 1024) '\000'; top = 0 }

let alloc a len =
  let addr = a.base + a.top in
  a.top <- a.top + ((len + 7) land lnot 7);
  addr

let put32 a ~addr v = Bytes.set_int32_le a.buf (addr - a.base) (Int32.of_int v)
let put64 a ~addr v = Bytes.set_int64_le a.buf (addr - a.base) (Int64.of_int v)

let read a ~addr ~len =
  let off = addr - a.base in
  if off >= 0 && len >= 0 && off + len <= Bytes.length a.buf then Bytes.sub a.buf off len
  else Bytes.make (max 0 len) '\000'

(* ---- core.ioctl_guard / analyzer ---- *)

let guard_ns ~budget_s ~config ~arena ioctls =
  let limits = limits_of config and read = read arena in
  let n = List.length ioctls in
  per_call ~budget_s ~calls:n (fun () ->
      List.iter
        (fun (dev_class, cmd, arg) ->
          match Paradice.Ioctl_guard.check ~dev_class ~cmd ~arg ~limits ~read with
          | Paradice.Ioctl_guard.Pass -> ()
          | Paradice.Ioctl_guard.Reject { violated; _ } ->
              failwith ("guard replay rejected " ^ violated))
        ioctls)

(* The frontend's per-ioctl memory-operation lookup: the analyzer table
   when the export has one, command-number decoding otherwise. *)
let ops_for_ns ~budget_s ~table ~arena ioctls =
  let read_user = read arena in
  let n = List.length ioctls in
  per_call ~budget_s ~calls:n (fun () ->
      List.iter
        (fun (_, cmd, arg) ->
          let arg = Int64.to_int arg in
          ignore
            (match table with
             | Some t -> Analyzer.Extract.ops_for t ~cmd ~arg ~read_user
             | None -> Analyzer.Cmd_macro.ops_of_cmd cmd ~arg
              : Grant.op list))
        ioctls)

(* ---- hypervisor ---- *)

(* Grant-checked cross-VM copies at the sizes the driver really copied:
   each declares its grant, copies through Hyp (authorisation, TLB
   translation, blit) and releases the grant. *)
let copy_ns ~budget_s copies =
  let hyp, guest, driver = two_vms () in
  let pages = 16 in
  let span = pages * Memory.Addr.page_size and gva = 0x10_0000 in
  let pt = Memory.Guest_pt.create () in
  for i = 0 to pages - 1 do
    Memory.Guest_pt.map pt ~gva:(gva + (i * Memory.Addr.page_size))
      ~gpa:(Vm.alloc_gpa_page guest) ~perms:Memory.Perm.rw
  done;
  let table = Hyp.setup_grant_table hyp guest in
  let buf = Bytes.make span '\001' in
  let copies = List.map (fun (from_user, len) -> (from_user, max 1 (min len span))) copies in
  let n = List.length copies in
  per_call ~budget_s ~calls:n (fun () ->
      List.iter
        (fun (from_user, len) ->
          let op =
            if from_user then Grant.Copy_from_user { addr = gva; len }
            else Grant.Copy_to_user { addr = gva; len }
          in
          let grant_ref = Grant.declare table [ op ] in
          let req = { Hyp.caller = driver; target = guest; pt; grant_ref } in
          if from_user then Hyp.copy_from_process_into hyp req ~gva ~dst:buf ~dst_off:0 ~len
          else Hyp.copy_to_process_from hyp req ~gva ~src:buf ~src_off:0 ~len;
          Grant.release table grant_ref)
        copies)
