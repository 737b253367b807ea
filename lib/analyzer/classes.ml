(** The analyzed device classes: one IR driver per class the system
    exports, keyed by the device class string the backend sees
    ([Defs.dev_class]).  This is the registry the generated sanitizers,
    the hostile generators and the [paradice analyze] CLI all read. *)

let all : (string * Ir.driver) list =
  [
    ("gpu", Radeon_ir.driver_3_2_0);
    ("input", Evdev_ir.driver);
    ("camera", V4l2_ir.driver);
    ("audio", Pcm_ir.driver);
    ("net", Netmap_ir.driver);
  ]

(* Facts are pure functions of the IR, cheap to extract, and read from
   parallel domains (fleet shards resolve them when they open files):
   extract them once, at start-up.  A lazy value that two domains force
   at once raises [CamlinternalLazy.Undefined] in one of them. *)
let facts = List.map (fun (cls, d) -> (cls, Facts.of_driver d)) all
let facts_for cls = List.assoc_opt cls facts

let fact_for ~dev_class ~cmd =
  match facts_for dev_class with None -> None | Some t -> Facts.find t cmd
