(** Online statistics accumulator used by the benchmark harness.

    Keeps every sample (experiments are small enough) so exact
    percentiles are available alongside the running mean. *)

type t = {
  mutable samples : float list;
  mutable sorted : float array option; (* cache, invalidated by [add] *)
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

let create (_ : string) =
  {
    samples = [];
    sorted = None;
    count = 0;
    sum = 0.;
    min = infinity;
    max = neg_infinity;
  }

let add t x =
  t.samples <- x :: t.samples;
  t.sorted <- None;
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then nan else t.min
let max_value t = if t.count = 0 then nan else t.max

(* Sorting every call was quadratic across a report's percentile
   columns, and rounding the fractional rank to the nearest sample
   snapped tail percentiles (p99 of a small run) to the maximum. *)
let sorted_samples t =
  match t.sorted with
  | Some arr -> arr
  | None ->
      let arr = Array.of_list t.samples in
      Array.sort Float.compare arr;
      t.sorted <- Some arr;
      arr

let percentile t p =
  if t.count = 0 then nan
  else begin
    let arr = sorted_samples t in
    let n = Array.length arr in
    let rank = p /. 100. *. float_of_int (n - 1) in
    let rank =
      if rank < 0. then 0.
      else if rank > float_of_int (n - 1) then float_of_int (n - 1)
      else rank
    in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (* linear interpolation between the neighbouring order statistics *)
    (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
  end

let median t = percentile t 50.
let p99 t = percentile t 99.
let p999 t = percentile t 99.9

(** [merge_into ~into t] folds [t]'s samples into [into], as if every
    sample had been {!add}ed there — so fleet-wide percentiles over
    per-shard accumulators are exact, identical to pooling the raw
    samples.  [t] is unchanged.  Cross-shard aggregation must only run
    after the shard domains have been joined. *)
let merge_into ~into t =
  if t.count > 0 then begin
    into.samples <- List.rev_append t.samples into.samples;
    into.sorted <- None;
    into.count <- into.count + t.count;
    into.sum <- into.sum +. t.sum;
    if t.min < into.min then into.min <- t.min;
    if t.max > into.max then into.max <- t.max
  end

(** [merge ts] pools the samples of [ts] into a fresh accumulator. *)
let merge ts =
  let into = create "" in
  List.iter (fun t -> merge_into ~into t) ts;
  into
