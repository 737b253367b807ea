(** I/O Memory Management Unit.

    Translates device DMA addresses to system physical addresses, one
    domain per assigned device.  With plain device assignment the
    hypervisor maps the whole driver-VM memory; with device data
    isolation it starts empty and pages are mapped per-request, each
    tagged with a protected-region ID so the hypervisor can switch the
    active region by unmapping one region's pages and mapping the
    other's (§4.2). *)

type mapping = { spn : int; perms : Perm.t; region : int option }

type t = { entries : (int, mapping) Hashtbl.t (* dma pfn -> mapping *) }

let create () = { entries = Hashtbl.create 256 }

let map t ~dma ~spa ~perms ~region =
  if not (Addr.is_page_aligned dma && Addr.is_page_aligned spa) then
    invalid_arg "Iommu.map: unaligned";
  Hashtbl.replace t.entries (Addr.pfn dma) { spn = Addr.pfn spa; perms; region }

let unmap t ~dma = Hashtbl.remove t.entries (Addr.pfn dma)

let translate t ~dma ~access =
  match Hashtbl.find_opt t.entries (Addr.pfn dma) with
  | Some { spn; perms; _ } ->
      if Perm.allows perms access then Addr.of_pfn spn lor Addr.offset dma
      else Fault.iommu_fault ~addr:dma ~access "permission denied"
  | None -> Fault.iommu_fault ~addr:dma ~access "no IOMMU mapping"

(** DMA pfns currently mapped for a given region tag. *)
let pfns_of_region t region =
  Hashtbl.fold
    (fun dma_pfn m acc -> if m.region = Some region then dma_pfn :: acc else acc)
    t.entries []

(** Remove every mapping tagged with [region]; returns how many were
    dropped.  This is the expensive half of a region switch. *)
let unmap_region t region =
  let victims = pfns_of_region t region in
  List.iter (Hashtbl.remove t.entries) victims;
  List.length victims
