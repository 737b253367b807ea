(* Two guest VMs share one GPU (§3.2.3, §5.1):
   - guest "gamer" renders frames under the foreground/background
     graphics policy;
   - guest "compute" runs GPGPU jobs concurrently (always allowed);
   - halfway through, the user presses the key combination that flips
     the foreground guest.

     dune exec examples/gpu_sharing.exe *)

let () =
  let machine = Paradice.Api.boot () in
  let (_ : Paradice.Machine.gpu_attachment) = Paradice.Machine.attach_gpu machine in
  let gamer = Paradice.Machine.add_guest machine ~name:"gamer" () in
  let compute = Paradice.Machine.add_guest machine ~name:"compute" () in
  let policy = Paradice.Machine.policy machine in
  let engine = Paradice.Machine.engine machine in

  (* the gamer renders while it owns the foreground *)
  let frames_rendered = ref 0 and frames_paused = ref 0 in
  let env_g = Workloads.Runner.of_guest ~label:"gamer" machine gamer in
  Workloads.Runner.spawn env_g (fun () ->
      let task = Workloads.Runner.spawn_app env_g ~name:"tremulous" in
      let fd = Workloads.Gem.open_gpu env_g task in
      let tex =
        Workloads.Gem.create env_g task fd ~size:65536
          ~domain:Devices.Radeon_ioctl.domain_gtt
      in
      for _ = 1 to 60 do
        if
          Paradice.Policy.may_render policy
            (Hypervisor.Vm.id gamer.Paradice.Machine.vm)
        then begin
          let ib = [ Devices.Radeon_ioctl.pkt_draw; 38000; 1024; 768; 1; 0 ] in
          let (_ : int) =
            Workloads.Gem.submit_cs env_g task fd ~ib_words:ib ~relocs:[| tex |]
          in
          Workloads.Gem.wait_idle env_g task fd;
          incr frames_rendered
        end
        else begin
          (* backgrounded: pause instead of rendering (§5.1) *)
          incr frames_paused;
          Sim.Engine.wait 16_000.
        end
      done;
      Workloads.Runner.close env_g task fd);

  (* the compute guest multiplies matrices regardless of focus *)
  let jobs_done = ref 0 in
  let env_c = Workloads.Runner.of_guest ~label:"compute" machine compute in
  Workloads.Runner.spawn env_c (fun () ->
      let task = Workloads.Runner.spawn_app env_c ~name:"opencl" in
      let fd = Workloads.Gem.open_gpu env_c task in
      for _ = 1 to 8 do
        assert
          (Paradice.Policy.may_compute policy
             (Hypervisor.Vm.id compute.Paradice.Machine.vm));
        let bytes = 64 * 64 * 8 in
        let mk () =
          Workloads.Gem.create env_c task fd ~size:bytes
            ~domain:Devices.Radeon_ioctl.domain_gtt
        in
        let a = mk () and b = mk () and out = mk () in
        let ib = [ Devices.Radeon_ioctl.pkt_compute; 64; 0; 1; 2; 0 ] in
        let (_ : int) =
          Workloads.Gem.submit_cs env_c task fd ~ib_words:ib ~relocs:[| a; b; out |]
        in
        Workloads.Gem.wait_idle env_c task fd;
        incr jobs_done
      done;
      Workloads.Runner.close env_c task fd);

  (* the user flips the virtual terminal halfway through *)
  Sim.Engine.at engine ~delay:400_000. (fun () ->
      Printf.printf "[t=%.0fms] ctrl-alt-F2: foreground -> compute guest\n"
        (Sim.Engine.now engine /. 1000.);
      Paradice.Policy.set_foreground policy
        (Hypervisor.Vm.id compute.Paradice.Machine.vm));

  Sim.Engine.run engine;
  Printf.printf "gamer:   %d frames rendered, %d paused (backgrounded)\n"
    !frames_rendered !frames_paused;
  Printf.printf "compute: %d GPGPU jobs completed concurrently\n" !jobs_done;
  Printf.printf "policy switches: %d\n" (Paradice.Policy.switches policy);
  let att = Option.get machine.Paradice.Machine.gpu in
  Printf.printf "GPU executed %d commands for both guests\n"
    (Devices.Gpu_hw.commands_executed att.Paradice.Machine.gpu)
