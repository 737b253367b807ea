(* Fleet shards open files on parallel domains, and a backend that
   opens a file takes its class's guard checks, built from the class
   facts.  Two domains released together into the first read of the
   facts and of the guard's checks must both get them: a lazily built
   registry raised CamlinternalLazy.Undefined in one of two domains
   that forced it at once.  This is its own executable so that nothing
   has read them before the two domains do. *)

let () =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let read () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let (_ : Paradice.Ioctl_guard.facts) = Paradice.Ioctl_guard.resolve ~dev_class:"gpu" in
    Analyzer.Classes.facts_for "gpu"
  in
  let d1 = Domain.spawn read and d2 = Domain.spawn read in
  while Atomic.get ready < 2 do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  match (Domain.join d1, Domain.join d2) with
  | Some _, Some _ -> ()
  | _ -> failwith "gpu class facts missing"
