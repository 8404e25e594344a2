(** Imperative binary min-heap keyed by integer priority.

    Used as the far tier of the simulation engine's event queue; ties
    are broken by insertion order ([seq]) so that the simulation is
    deterministic. The heap itself is int arrays (key, seq, and the
    slot of a separate value table), so a sift moves only ints; the
    [min_key] / [min_seq] / [pop] / [push_seq] quartet never
    allocates. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

(** [push t ~key v] inserts [v] with priority [key], drawing the
    tie-break [seq] from the heap's own counter. *)
val push : 'a t -> key:int -> 'a -> unit

(** [push_seq t ~key ~seq v] inserts with an explicit tie-break seq —
    used when the seq counter is owned by a wrapper (the two-tier
    {!Event_queue}) so FIFO order holds across tiers. Keeps the
    internal counter above [seq]; do not interleave with [push] using
    stale external seqs. *)
val push_seq : 'a t -> key:int -> seq:int -> 'a -> unit

(** [min_key t] / [min_seq t] are the root's priority and tie-break,
    without allocating. Raise [Not_found] when empty. *)
val min_key : 'a t -> int

val min_seq : 'a t -> int

(** [pop t] removes and returns the minimum-(key, seq) value without
    allocating. Raises [Not_found] when empty. *)
val pop : 'a t -> 'a
