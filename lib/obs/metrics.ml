(** Metrics registry: named counters and {!Sim.Stats} histograms.

    The Audit-style companion to {!Trace}: spans feed per-op-type
    latency histograms here as they close, and the transport bumps
    counters for events that have no duration (coalesced doorbells,
    dropped legs).  Keys are plain strings ("op.read",
    "stage.doorbell:req", "doorbell.req_coalesced") so new
    instrumentation needs no schema change; dumps are sorted so
    reports are deterministic. *)

type t = {
  hists : (string, Sim.Stats.t) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
}

let create () = { hists = Hashtbl.create 32; counters = Hashtbl.create 32 }

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Sim.Stats.create name in
      Hashtbl.replace t.hists name h;
      h

(** Record one sample into the named histogram (created on first use). *)
let observe t name v = Sim.Stats.add (histogram t name) v

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let count t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let find_histogram t name = Hashtbl.find_opt t.hists name

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** All histograms, sorted by name (deterministic). *)
let histograms t = sorted_bindings t.hists Fun.id

(** All counters, sorted by name (deterministic). *)
let counters t = sorted_bindings t.counters ( ! )

(** Fold [src] into [into], optionally renaming every key with
    [prefix] (e.g. ["shard3."]) — the cross-shard aggregation path:
    each fleet shard records into its own registry while running, and
    the coordinator merges them after the domains join.  Histogram
    merges are exact ({!Sim.Stats.merge_into}); [src] is unchanged. *)
let merge ~into ?(prefix = "") src =
  Hashtbl.iter
    (fun name h -> Sim.Stats.merge_into ~into:(histogram into (prefix ^ name)) h)
    src.hists;
  Hashtbl.iter (fun name r -> incr ~by:!r into (prefix ^ name)) src.counters

let reset t =
  Hashtbl.reset t.hists;
  Hashtbl.reset t.counters
