(** The engine's event queue: near/far two-tier priority structure.

    Events scheduled for the current instant ([key = now] — wait-queue
    wakeups, spawns, elided hops, the bulk of every workload) go to an
    O(1) FIFO ring; future events go to the struct-of-arrays {!Heap}.
    A single seq counter spans both tiers, so pop order is by
    (key, seq) exactly as in a single binary heap — the same
    schedules, without the worst-case full-depth sift a delay-0 push
    causes in a binary heap. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

(** [push t ~now ~key v] schedules [v] at virtual time [key]. [now] is
    the engine clock; [key >= now]. FIFO among equal keys. *)
val push : 'a t -> now:int -> key:int -> 'a -> unit

(** [min_key t] is the earliest scheduled time. Raises [Not_found] when
    empty. Never allocates. *)
val min_key : 'a t -> int

(** [pop t] removes and returns the event with the smallest (key, seq).
    Raises [Not_found] when empty. Never allocates on the fast path. *)
val pop : 'a t -> 'a
