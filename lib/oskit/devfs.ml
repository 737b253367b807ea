(** The /dev filesystem: path -> device registry.

    Also carries the kernel's exported device information (/sys in
    Linux, /dev/pci in FreeBSD — §2.1), which Paradice's device info
    modules replicate into guests. *)

type t = {
  devices : (string, Defs.device) Hashtbl.t;
  sysfs : (string, string) Hashtbl.t;
}

let create () = { devices = Hashtbl.create 16; sysfs = Hashtbl.create 32 }

let register t dev =
  if Hashtbl.mem t.devices dev.Defs.dev_path then
    invalid_arg ("Devfs.register: duplicate " ^ dev.Defs.dev_path);
  Hashtbl.replace t.devices dev.Defs.dev_path dev

let lookup t path = Hashtbl.find_opt t.devices path

let list t =
  Hashtbl.fold (fun _ dev acc -> dev :: acc) t.devices []
  |> List.sort (fun a b -> compare a.Defs.dev_path b.Defs.dev_path)

(** /sys-style attribute export: device info consumers (the X server
    needing the GPU make, §2.1) read these. *)
let sysfs_set t key value = Hashtbl.replace t.sysfs key value
let sysfs_get t key = Hashtbl.find_opt t.sysfs key

let sysfs_entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sysfs []
  |> List.sort compare
