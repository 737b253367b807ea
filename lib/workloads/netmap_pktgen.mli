(** The netmap packet generator (Figure 2): transmit 64-byte packets
    as fast as possible, one poll file operation per batch. *)

val per_packet_fill_us : float

type result = { rate_mpps : float; packets : int; elapsed_s : float }

val run : Runner.env -> packets:int -> batch:int -> result

(** Multi-op descriptor variant (Paradice modes only): accumulate up
    to [ops_per_desc] (default 16, clamped to
    {!Paradice.Proto.max_batch_ops}) txsync ioctls per forwarded ring
    descriptor, amortising the notification legs over
    [ops_per_desc * batch] packets. *)
val run_batched :
  Runner.env ->
  packets:int ->
  batch:int ->
  ?ops_per_desc:int ->
  unit ->
  result
