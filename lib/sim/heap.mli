(** Imperative binary min-heap keyed by integer priority: the
    simulation engine's event queue. Ties are broken by insertion
    order, so that the simulation is deterministic. The heap itself is
    int arrays (key, seq, and the slot of a separate value table), so a
    sift moves only ints; [push], [min_key] and [pop] never allocate.
    An entry can be removed by the handle its push returned, in
    O(log n). *)

type 'a t

(** Names one pushed entry. Removing through a handle whose entry has
    left the heap is a no-op, even after its slot is reused. *)
type handle

val create : unit -> 'a t

val is_empty : 'a t -> bool

(** [push t ~key v] inserts [v] with priority [key], after every entry
    already pushed with the same key. *)
val push : 'a t -> key:int -> 'a -> handle

(** [min_key t] is the root's priority, without allocating. Raises
    [Not_found] when empty. *)
val min_key : 'a t -> int

(** [pop t] removes and returns the minimum-(key, seq) value without
    allocating. Raises [Not_found] when empty. *)
val pop : 'a t -> 'a

(** [remove t h] takes [h]'s entry out and drops its value, if it is
    still in the heap. *)
val remove : 'a t -> handle -> unit
