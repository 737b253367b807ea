(** Online statistics accumulator used by the benchmark harness.

    Keeps every sample (experiments are small enough) so exact
    percentiles are available alongside the running mean. *)

(* The running sums sit in an all-float record, stored flat, so [add]
   allocates nothing. *)
type sums = { mutable sum : float; mutable min : float; mutable max : float }

type t = {
  mutable samples : Float.Array.t; (* [count] samples, in arrival order; doubles when full *)
  mutable sorted : Float.Array.t option; (* cache, invalidated by [add] *)
  mutable count : int;
  sums : sums;
}

let create (_ : string) =
  {
    samples = Float.Array.create 0;
    sorted = None;
    count = 0;
    sums = { sum = 0.; min = infinity; max = neg_infinity };
  }

(* Room for [n] more samples. *)
let reserve t n =
  let cap = Float.Array.length t.samples in
  if t.count + n > cap then begin
    let grown = Float.Array.create (max (t.count + n) (max 16 (2 * cap))) in
    Float.Array.blit t.samples 0 grown 0 t.count;
    t.samples <- grown
  end

let add t x =
  reserve t 1;
  Float.Array.unsafe_set t.samples t.count x;
  t.sorted <- None;
  t.count <- t.count + 1;
  let s = t.sums in
  s.sum <- s.sum +. x;
  if x < s.min then s.min <- x;
  if x > s.max then s.max <- x

let count t = t.count
let sum t = t.sums.sum
let mean t = if t.count = 0 then nan else t.sums.sum /. float_of_int t.count
let min_value t = if t.count = 0 then nan else t.sums.min
let max_value t = if t.count = 0 then nan else t.sums.max

(* Sorting every call was quadratic across a report's percentile
   columns, and rounding the fractional rank to the nearest sample
   snapped tail percentiles (p99 of a small run) to the maximum. *)
let sorted_samples t =
  match t.sorted with
  | Some arr -> arr
  | None ->
      let arr = Float.Array.sub t.samples 0 t.count in
      Float.Array.sort Float.compare arr;
      t.sorted <- Some arr;
      arr

let percentile t p =
  if t.count = 0 then nan
  else begin
    let arr = sorted_samples t in
    let n = t.count in
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
    (Float.Array.get arr lo *. (1. -. frac)) +. (Float.Array.get arr hi *. frac)
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
    reserve into t.count;
    Float.Array.blit t.samples 0 into.samples into.count t.count;
    into.sorted <- None;
    into.count <- into.count + t.count;
    let s = into.sums in
    s.sum <- s.sum +. t.sums.sum;
    if t.sums.min < s.min then s.min <- t.sums.min;
    if t.sums.max > s.max then s.max <- t.sums.max
  end

(** [merge ts] pools the samples of [ts] into a fresh accumulator. *)
let merge ts =
  let into = create "" in
  List.iter (fun t -> merge_into ~into t) ts;
  into
