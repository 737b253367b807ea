(** Mouse latency (§6.1.5).

    Measured exactly as the paper does: "the time from when the mouse
    event is reported to the device driver to when the read operation
    issued by the application reaches the driver".  The evdev driver
    keeps that probe ({!Devices.Evdev.read_latencies}); the application
    is a blocking-read loop like evtest. *)

open Runner

let run env ~moves ?(rate_hz = 100.) () =
  let mouse =
    match env.machine.Paradice.Machine.mouse with
    | Some m -> m
    | None -> failwith "mouse not attached"
  in
  spawn env (fun () ->
      let task = spawn_app env ~name:"evtest" in
      let fd = openf env task "/dev/input/event0" in
      let buf = Oskit.Task.alloc_buf task 512 in
      (* Asynchronous-notification style (§2.1): the application asks
         for SIGIO and issues a read when notified, so each event pays
         the full notification + read forwarding path. *)
      let sigio = Sim.Mailbox.create (engine env) in
      Oskit.Task.on_sigio task (fun () -> Sim.Mailbox.send sigio ());
      ok ~what:"fasync" (Oskit.Vfs.fasync env.kernel task fd ~on:true);
      ok ~what:"nonblock" (Oskit.Vfs.set_nonblock env.kernel task fd ~nonblock:true);
      let events = ref 0 in
      while !events < 2 * moves do
        let () = Sim.Mailbox.recv sigio in
        (* coalesce bursts (REL+SYN raise two signals) into one read *)
        Sim.Mailbox.clear sigio;
        match Oskit.Vfs.read env.kernel task fd ~buf ~len:512 with
        | Ok n -> events := !events + (n / Devices.Evdev.event_bytes)
        | Error Oskit.Errno.EAGAIN -> ()
        | Error e -> raise (Syscall_failed (e, "read"))
      done;
      close env task fd);
  Devices.Evdev.start_mouse mouse ~rate_hz ~moves;
  run env;
  let latencies = Devices.Evdev.read_latencies mouse in
  match latencies with
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
