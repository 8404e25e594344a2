(** Deterministic pseudo-random number generator (splitmix64).

    The simulator never consults global randomness: every stochastic
    choice (fault injection, workload shuffling) draws from an explicitly
    seeded generator so that runs are reproducible. *)

type t

val create : seed:int -> t

(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] on
    [bound <= 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t ~p] is true with probability [p]. *)
val bool : t -> p:float -> bool

(** Zipfian key popularity over [0, n) — the standard quick generator
    (Gray et al.; the one YCSB uses). Rank 0 is the hottest key.
    [theta] in [0, 1) tunes the skew: 0 is uniform, 0.99 is the classic
    heavily-skewed benchmark setting. Construction is O(n) (it
    precomputes the zeta normalizer); sampling is O(1). *)
module Zipf : sig
  type rng := t

  type t

  val create : n:int -> theta:float -> t

  (** [sample t rng] draws a key rank in [0, n). *)
  val sample : t -> rng -> int
end
