(** The I/O virtualization strategy comparison (Table 3), produced
    from the implementations in this repository. *)

type capabilities = {
  strategy : string;
  high_performance : bool;
  low_development_effort : bool;
  device_sharing : [ `Yes | `Limited | `No ];
  legacy_devices : bool;
}

val paradice : capabilities
val all : capabilities list
val sharing_string : [ `Yes | `Limited | `No ] -> string
val yesno : bool -> string
