(* Isolation demonstration (§4): a machine with GPU data isolation
   enabled, attacked from a compromised driver VM and from a malicious
   guest.  Every attack must be blocked while the benign guest keeps
   working.

     dune exec examples/attack_demo.exe *)

open Oskit

let check name outcome =
  Printf.printf "  %-55s %s\n" name
    (match outcome with `Blocked -> "BLOCKED" | `Succeeded -> "!!! SUCCEEDED")

let () =
  let config = Paradice.Config.with_data_isolation Paradice.Config.default in
  let machine = Paradice.Machine.create ~config () in
  let att = Paradice.Machine.attach_gpu machine in
  let victim = Paradice.Machine.add_guest machine ~name:"victim" () in
  let attacker = Paradice.Machine.add_guest machine ~name:"attacker" () in
  let mgr = Paradice.Machine.enable_gpu_data_isolation machine in
  let hyp = Paradice.Machine.hyp machine in
  let driver_vm = Kernel.vm (Paradice.Machine.driver_kernel machine) in
  let engine = Paradice.Machine.engine machine in

  (* The victim does real GPU work: write a texture into a protected
     GTT buffer through its mapping. *)
  let victim_secret = "victim-texture-0xSECRET" in
  let victim_bo_spa = ref 0 in
  Sim.Engine.spawn engine (fun () ->
      let env = Workloads.Runner.of_guest ~label:"victim" machine victim in
      let task = Workloads.Runner.spawn_app env ~name:"game" in
      let fd = Workloads.Gem.open_gpu env task in
      let bo =
        Workloads.Gem.create env task fd ~size:4096
          ~domain:Devices.Radeon_ioctl.domain_gtt
      in
      let va = Workloads.Gem.map env task fd bo in
      Vfs.user_write env.Workloads.Runner.kernel task ~gva:va
        (Bytes.of_string victim_secret);
      (* find where the data physically lives (a protected pool page) *)
      let gpa =
        Memory.Guest_pt.translate task.Defs.pt ~gva:va ~access:Memory.Perm.Read
      in
      (match Memory.Ept.lookup (Hypervisor.Vm.ept victim.Paradice.Machine.vm) ~gpa with
      | Some (spa, _) -> victim_bo_spa := spa
      | None -> ());
      (* render with it: the GPU may read it while region 0 is active *)
      let ib = [ Devices.Radeon_ioctl.pkt_draw; 1000; 640; 480; 1; 0 ] in
      let (_ : int) = Workloads.Gem.submit_cs env task fd ~ib_words:ib ~relocs:[| bo |] in
      Workloads.Gem.wait_idle env task fd);
  Sim.Engine.run engine;
  Printf.printf "victim rendered %d frame(s); its texture lives at spa %#x\n"
    (Devices.Gpu_hw.frames_rendered att.Paradice.Machine.gpu)
    !victim_bo_spa;
  Printf.printf "GPU faults so far: %d\n\n"
    (List.length (Devices.Gpu_hw.faults att.Paradice.Machine.gpu));

  Printf.printf "attacks from a compromised driver VM:\n";
  (* 1. CPU read of the victim's protected page *)
  check "driver VM CPU reads the victim's texture page"
    (let gpas =
       Memory.Ept.gpas_of_spn (Hypervisor.Vm.ept driver_vm)
         (Memory.Addr.pfn !victim_bo_spa)
     in
     if gpas = [] then `Succeeded
     else if
       List.for_all
         (fun gpa ->
           match
             Hypervisor.Vm.read driver_vm ~pt:Hypervisor.Vm.no_pt ~addr:gpa ~len:16
           with
           | _ -> false
           | exception Memory.Fault.Ept_violation _ -> true)
         gpas
     then `Blocked
     else `Succeeded);

  (* 2. IOMMU-map the victim's page into the attacker's region *)
  let attacker_rid =
    Option.get
      (Hypervisor.Region.region_of_guest mgr
         (Hypervisor.Vm.id attacker.Paradice.Machine.vm))
  in
  check "driver maps victim's page into attacker's IOMMU region"
    (match
       Hypervisor.Region.request_iommu_map mgr ~rid:attacker_rid ~dma:0x9990000
         ~spa:(Memory.Addr.align_down !victim_bo_spa) ~perms:Memory.Perm.rw
     with
    | () -> `Succeeded
    | exception Hypervisor.Region.Isolation_violation _ -> `Blocked);

  (* 3. Program the GPU to blit outside the active region's VRAM slice *)
  check "GPU programmed to copy another region's VRAM"
    (let gpu = att.Paradice.Machine.gpu in
     let before = List.length (Devices.Gpu_hw.faults gpu) in
     let (_ : int) = Hypervisor.Region.switch_region mgr ~rid:1 in
     let base0, _ = Hypervisor.Region.dev_slice mgr 0 in
     Devices.Gpu_hw.submit gpu
       (Devices.Gpu_hw.Blit
          {
            src = Devices.Gpu_hw.Vram (base0 - Devices.Gpu_hw.vram_base gpu);
            dst = Devices.Gpu_hw.Vram 0;
            len = 32;
          });
     Devices.Gpu_hw.submit gpu (Devices.Gpu_hw.Fence 424242);
     Sim.Engine.run engine;
     if List.length (Devices.Gpu_hw.faults gpu) > before then `Blocked else `Succeeded);

  (* 4. Forged hypervisor copy against undeclared victim memory *)
  check "driver VM forges a copy from victim memory"
    (let table = Option.get (Hypervisor.Hyp.grant_table_of hyp victim.Paradice.Machine.vm) in
     let gref =
       Hypervisor.Grant_table.declare table
         [ Hypervisor.Grant_table.Copy_from_user { addr = 0x10; len = 1 } ]
     in
     let victim_app = Kernel.spawn_task victim.Paradice.Machine.kernel ~name:"x" in
     let req =
       { Hypervisor.Hyp.caller = driver_vm; target = victim.Paradice.Machine.vm;
         pt = victim_app.Defs.pt; grant_ref = gref }
     in
     match Hypervisor.Hyp.copy_from_process hyp req ~gva:0x40000000 ~len:16 with
     | _ -> `Succeeded
     | exception Hypervisor.Hyp.Rejected _ -> `Blocked);

  (* 5. A malicious guest floods the channel (DoS) *)
  Printf.printf "\nattacks from a malicious guest VM:\n";
  let rejected = ref 0 in
  for i = 1 to 140 do
    Sim.Engine.spawn engine (fun () ->
        let env = Workloads.Runner.of_guest ~label:"attacker" machine attacker in
        let task = Workloads.Runner.spawn_app env ~name:(Printf.sprintf "flood%d" i) in
        match Vfs.openf env.Workloads.Runner.kernel task "/dev/dri/card0" with
        | Ok fd -> (
            (* a long blocking poll occupies a backend slot *)
            match
              Vfs.poll env.Workloads.Runner.kernel task fd ~want_in:true
                ~want_out:false ~timeout:50_000.
            with
            | Ok _ -> ()
            | Error Errno.EBUSY -> incr rejected
            | Error _ -> ())
        | Error Errno.EBUSY -> incr rejected
        | Error _ -> ())
  done;
  Sim.Engine.run engine;
  check
    (Printf.sprintf "guest floods the backend (140 ops, %d rejected at cap)" !rejected)
    (if !rejected > 0 then `Blocked else `Succeeded);

  let audit = Hypervisor.Hyp.audit hyp in
  Printf.printf "\nhypervisor audit: %s\n"
    (Format.asprintf "%a" Hypervisor.Audit.pp audit)
