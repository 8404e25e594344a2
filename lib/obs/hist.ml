(* Latency samples in integer microseconds of virtual time. Percentiles
   use the nearest-rank definition on the sorted samples, which is exact
   and deterministic — appropriate for simulation output. *)

type t = { mutable samples : int list; mutable n : int }

let create () = { samples = []; n = 0 }

let add t v =
  t.samples <- v :: t.samples;
  t.n <- t.n + 1

let of_list vs = { samples = vs; n = List.length vs }

let count t = t.n

let sorted t = List.sort compare t.samples

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Hist.percentile: p outside [0,100]";
  if t.n = 0 then 0
  else begin
    let arr = Array.of_list (sorted t) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
    arr.(max 0 (min (t.n - 1) (rank - 1)))
  end

let p50 t = percentile t 50.0

let p95 t = percentile t 95.0

let p99 t = percentile t 99.0

let max_value t = List.fold_left max 0 t.samples
