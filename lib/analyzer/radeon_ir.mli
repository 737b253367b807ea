(** IR mirror of the Radeon driver's ioctl handlers — the "driver
    source" the analyzer processes (§4.1).  Consistency tests execute
    the real driver under a recording [Uaccess] and require the
    IR-derived operations to match exactly.  Two versions mirror the
    paper's Linux 2.6.35 vs 3.2.0 study. *)

val gem_create_handler : Ir.handler

(** The nested-copy flagship: chunk pointers inside the copied struct,
    headers behind the pointers, payloads behind the headers. *)
val cs_handler : Ir.handler

(** The other nested shape: a result written through a pointer carried
    inside the copied request. *)
val info_handler : Ir.handler

val driver_2_6_35 : Ir.driver
val driver_3_2_0 : Ir.driver
