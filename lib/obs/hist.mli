(** Virtual-time latency samples with exact nearest-rank percentiles. *)

type t

val create : unit -> t

val add : t -> int -> unit

val of_list : int list -> t

val count : t -> int

(** [percentile t p] for [p] in [0, 100]; 0 when empty. Nearest-rank on
    the sorted samples: deterministic and exact. *)
val percentile : t -> float -> int

val p50 : t -> int

val p95 : t -> int

val p99 : t -> int

val max_value : t -> int
