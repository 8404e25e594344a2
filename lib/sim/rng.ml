(* splitmix64, truncated to OCaml's 63-bit ints. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let bool t ~p = float t < p

(* Zipfian keys over [0, n): the standard Gray et al. quick generator
   (the one YCSB uses), parameterized by skew theta in [0, 1). theta = 0
   degenerates to uniform; theta -> 1 concentrates mass on key 0. Key
   ranks are popularity ranks: 0 is the hottest key. *)
module Zipf = struct
  type rng = t

  type t = { n : int; theta : float; alpha : float; zetan : float; eta : float }

  let zeta n theta =
    let acc = ref 0. in
    for i = 1 to n do
      acc := !acc +. (1. /. (float_of_int i ** theta))
    done;
    !acc

  let create ~n ~theta =
    if n <= 0 then invalid_arg "Zipf.create: n <= 0";
    if theta < 0. || theta >= 1. then
      invalid_arg "Zipf.create: theta outside [0, 1)";
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    {
      n;
      theta;
      alpha = 1. /. (1. -. theta);
      zetan;
      eta =
        (1. -. ((2. /. float_of_int n) ** (1. -. theta)))
        /. (1. -. (zeta2 /. zetan));
    }

  let sample t (rng : rng) =
    if t.n = 1 then 0
    else begin
      let u = float rng in
      let uz = u *. t.zetan in
      if uz < 1. then 0
      else if uz < 1. +. (0.5 ** t.theta) then 1
      else
        let k =
          int_of_float
            (float_of_int t.n *. (((t.eta *. u) -. t.eta +. 1.) ** t.alpha))
        in
        if k < 0 then 0 else if k >= t.n then t.n - 1 else k
    end
end
