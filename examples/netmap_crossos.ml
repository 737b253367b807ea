(* Cross-OS paravirtualization (§3.2.2): a FreeBSD guest VM drives the
   netmap Ethernet driver living in a Linux driver VM, at several
   batch sizes and in both communication modes.

     dune exec examples/netmap_crossos.exe *)

let run config label =
  Printf.printf "%s:\n" label;
  List.iter
    (fun batch ->
      let machine =
        Paradice.Machine.create ~mode:Paradice.Machine.Paradice ~config ()
      in
      let (_ : Devices.Netmap_drv.t) = Paradice.Machine.attach_netmap machine in
      let guest =
        Paradice.Machine.add_guest machine ~name:"freebsd-guest"
          ~flavor:Oskit.Os_flavor.Freebsd_9 ()
      in
      Printf.printf "  guest kernel: %s, driver VM kernel: %s\n%!"
        (Oskit.Os_flavor.name (Oskit.Kernel.flavor guest.Paradice.Machine.kernel))
        (Oskit.Os_flavor.name
           (Oskit.Kernel.flavor (Paradice.Machine.driver_kernel machine)));
      let env = Workloads.Runner.of_machine ~label machine in
      let r = Workloads.Netmap_pktgen.run env ~packets:10_000 ~batch in
      Printf.printf "  batch %3d -> %.3f Mpps\n%!" batch
        r.Workloads.Netmap_pktgen.rate_mpps)
    [ 4; 32; 256 ]

let () =
  Printf.printf "netmap pktgen: FreeBSD guest, Linux driver VM (64-byte frames)\n";
  run Paradice.Config.default "Paradice(FL), interrupts";
  run Paradice.Config.polling "Paradice(FL), polling";
  Printf.printf "line rate: 1.488 Mpps\n"
