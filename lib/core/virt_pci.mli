(** Virtual PCI bus for guests (§5.1): exported devices appear as PCI
    functions so guest software can discover them as on bare metal. *)

type dev = {
  vendor : int;
  device : int;
  class_code : int;
  slot : int;
  dev_path : string;
}

type t

val create : unit -> t
val add : t -> vendor:int -> device:int -> class_code:int -> dev_path:string -> dev
val list : t -> dev list
val class_display : int
val class_input : int
val class_multimedia : int
val class_audio : int
val class_network : int
val pp_dev : Format.formatter -> dev -> unit
