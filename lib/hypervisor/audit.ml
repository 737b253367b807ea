(** Hypervisor audit counters.

    Every security-relevant decision is counted so tests can assert
    that attacks were actually blocked (not silently absorbed) and the
    benchmark harness can report validation overhead.  The [tlb]
    record is shared with every VM's software TLB ({!Memory.Tlb.stats})
    so hit/miss/walk counts aggregate here without a layering cycle. *)

type t = {
  mutable hypercalls : int;
  mutable copies_validated : int;
  mutable copy_bytes : int;
  mutable grants_rejected : int;
  mutable maps_performed : int;
  mutable unmaps_performed : int;
  mutable region_switches : int;
  mutable pages_scrubbed : int;
  mutable ept_perm_updates : int;
  grant_cache_hits : int; (* always 0: there is no grant-check cache *)
  mutable sanitize_rejections : int;
  mutable quarantines : int;
  tlb : Memory.Tlb.stats;
}

let create () =
  {
    hypercalls = 0;
    copies_validated = 0;
    copy_bytes = 0;
    grants_rejected = 0;
    maps_performed = 0;
    unmaps_performed = 0;
    region_switches = 0;
    pages_scrubbed = 0;
    ept_perm_updates = 0;
    grant_cache_hits = 0;
    sanitize_rejections = 0;
    quarantines = 0;
    tlb = Memory.Tlb.create_stats ();
  }

let tlb_hits t = t.tlb.Memory.Tlb.hits
let tlb_misses t = t.tlb.Memory.Tlb.misses
let walks_performed t = t.tlb.Memory.Tlb.walks

let pp ppf t =
  Fmt.pf ppf
    "hypercalls=%d copies=%d bytes=%d rejected=%d maps=%d unmaps=%d \
     switches=%d scrubbed=%d tlb_hits=%d tlb_misses=%d walks=%d \
     grant_cache_hits=%d sanitize_rejections=%d quarantines=%d"
    t.hypercalls t.copies_validated t.copy_bytes t.grants_rejected
    t.maps_performed t.unmaps_performed t.region_switches t.pages_scrubbed
    (tlb_hits t) (tlb_misses t) (walks_performed t) t.grant_cache_hits
    t.sanitize_rejections t.quarantines
