(** Hypervisor audit counters: every security-relevant decision is
    counted so tests can assert attacks were actually blocked and the
    benches can report validation overhead. *)

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
  grant_cache_hits : int;
      (** always 0: the grant check reads the guest's table in place
          and keeps no cache.  Kept for readers of the field by name
          (perfbench's [hypervisor.grant_cache_hit_ratio] row) *)
  mutable sanitize_rejections : int;
      (** backend sanitization refusals (malformed or out-of-bound
          request fields), across all guests *)
  mutable quarantines : int;  (** guests quarantined by the backend *)
  tlb : Memory.Tlb.stats;
      (** shared with every VM's software TLB so translation-cache
          counters aggregate here *)
}

val create : unit -> t

val tlb_hits : t -> int
val tlb_misses : t -> int
val walks_performed : t -> int
val pp : Format.formatter -> t -> unit
