(** Virtual PCI bus for guest VMs.

    Paradice "developed modules to create or reuse a virtual PCI bus in
    the guest" (§5.1) so applications can discover exported devices the
    way they would on bare metal (FreeBSD's /dev/pci, Linux's sysfs
    PCI hierarchy). *)

type dev = {
  vendor : int;
  device : int;
  class_code : int;
  slot : int;
  dev_path : string; (* the device file this function backs *)
}

type t = { mutable devices : dev list; mutable next_slot : int }

let create () = { devices = []; next_slot = 0 }

let add t ~vendor ~device ~class_code ~dev_path =
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  let d = { vendor; device; class_code; slot; dev_path } in
  t.devices <- d :: t.devices;
  d

let list t = List.sort (fun a b -> compare a.slot b.slot) t.devices

(** PCI class codes for the device classes Paradice exports. *)
let class_display = 0x030000
let class_input = 0x090000
let class_multimedia = 0x048000
let class_audio = 0x040300
let class_network = 0x020000

let pp_dev ppf d =
  Fmt.pf ppf "%02x:00.0 [%06x] %04x:%04x -> %s" d.slot d.class_code d.vendor
    d.device d.dev_path
