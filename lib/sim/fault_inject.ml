(** Deterministic fault injection.

    A single injector is shared by every layer that can misbehave (the
    CVD transport, the backend workers, the machine assembly).  Each
    fault site is named by a string key; the layer owning the site
    asks {!fires} every time the site is reached, and the injector
    decides — from an explicitly-seeded {!Rng} stream and the armed
    plan — whether the fault happens {e this} time.  Because the
    simulation engine is deterministic, the same seed and the same
    plan reproduce the same failure, which is what makes recovery
    behaviour testable in CI.

    Plans compose per key:
    - [Nth n] fires exactly on the n-th visit to the site (one-shot);
    - [Prob p] fires each visit with probability [p] (seeded RNG);
    - [Always] / [Never] are the endpoints.

    Observers can register callbacks with {!on_fire} — the machine
    assembly uses this to turn an abstract "crash here" site into an
    actual driver-VM kill at a precisely reproducible instant. *)

type spec =
  | Never
  | Always
  | Nth of int (* fire exactly on the nth visit (1-based), once *)
  | Prob of float (* fire per-visit with this probability *)

type site = {
  mutable spec : spec;
  mutable seen : int; (* visits to the site *)
  mutable armed_at : int; (* [seen] when the current plan was armed *)
  mutable fired : int; (* times the fault actually happened *)
  mutable hooks : (unit -> unit) list;
}

type t = { rng : Rng.t; sites : (string, site) Hashtbl.t }

let create ?(seed = 0x5EEDL) () = { rng = Rng.create ~seed; sites = Hashtbl.create 8 }

let site t key =
  match Hashtbl.find_opt t.sites key with
  | Some s -> s
  | None ->
      let s = { spec = Never; seen = 0; armed_at = 0; fired = 0; hooks = [] } in
      Hashtbl.replace t.sites key s;
      s

let arm t ~key spec =
  (match spec with
  | Prob p when not (p >= 0. && p <= 1.) ->
      invalid_arg "Fault_inject.arm: probability outside [0,1]"
  | Nth n when n <= 0 -> invalid_arg "Fault_inject.arm: Nth must be >= 1"
  | _ -> ());
  let s = site t key in
  s.spec <- spec;
  (* [Nth] counts visits from the arming point, so a plan armed
     mid-run targets the n-th {e subsequent} visit *)
  s.armed_at <- s.seen

let disarm t ~key = (site t key).spec <- Never

let on_fire t ~key hook =
  let s = site t key in
  s.hooks <- s.hooks @ [ hook ]

(** Visit the fault site named [key]; true when the armed plan says
    the fault happens this time.  Registered hooks run on firing. *)
let fires t ~key =
  let s = site t key in
  s.seen <- s.seen + 1;
  let hit =
    match s.spec with
    | Never -> false
    | Always -> true
    | Nth n ->
        if s.seen - s.armed_at = n then begin
          s.spec <- Never; (* one-shot *)
          true
        end
        else false
    | Prob p -> Rng.float t.rng 1.0 < p
  in
  if hit then begin
    s.fired <- s.fired + 1;
    List.iter (fun hook -> hook ()) s.hooks
  end;
  hit

exception Injected of string

(** Abort-style fail point: visit the site and raise {!Injected} when
    the armed plan fires.  Used for multi-phase operations (driver-VM
    upgrade, session migration) where the owner must unwind to a known
    state rather than merely observe the fault. *)
let check t ~key = if fires t ~key then raise (Injected key)

let fired t ~key = (site t key).fired

let stats t =
  Hashtbl.fold (fun key s acc -> (key, s.seen, s.fired) :: acc) t.sites []
  |> List.sort compare
