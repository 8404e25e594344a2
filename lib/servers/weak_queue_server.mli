(** The weak queue server (Section 4.2).

    A weak queue (semi-queue) does not guarantee FIFO dequeue order;
    relaxing strictness buys concurrency while keeping failure
    atomicity — the queue is {e permanent and failure atomic but not
    serializable}. The implementation follows the paper:

    - an array of individually lockable elements, each holding its
      contents and an [InUse] bit that abort restores along with the
      value;
    - a permanent, failure-atomic head pointer;
    - a volatile tail pointer, recomputed after crashes from the head
      pointer and the [InUse] bits, protected only by the monitor
      semantics of server coroutines;
    - [Dequeue] scans from the head with [IsObjectLocked] and the
      [InUse] test (skipping elements other transactions still
      manipulate — the operations whose need prompted the addition of
      [ConditionallyLockObject] and [IsObjectLocked] to the server
      library);
    - garbage collection of the head pointer as a side effect of
      [Enqueue]. *)

type t

(** [create env ~name ~segment ~capacity ()] builds the server. After a
    crash, re-creating it over the surviving segment recomputes the
    volatile tail pointer. *)
val create :
  Tabs_core.Server_lib.env ->
  name:string ->
  segment:int ->
  capacity:int ->
  unit ->
  t

(** Volatile tail, exposed for tests of the recomputation logic. Only
    meaningful after the first operation of the server's current
    incarnation (the recomputation from InUse bits is lazy). *)
val tail : t -> int

(** [enqueue t tid v] adds [v]; raises
    [Tabs_core.Errors.Server_error "QueueFull"] when no slot is free. *)
val enqueue : t -> Tabs_wal.Tid.t -> int -> unit

(** [dequeue t tid] removes and returns some enqueued element — not
    necessarily the oldest; raises
    [Tabs_core.Errors.Server_error "QueueEmpty"] when nothing is
    dequeuable. *)
val dequeue : t -> Tabs_wal.Tid.t -> int

(** [is_queue_empty t tid] — true when no element is dequeuable right
    now. *)
val is_queue_empty : t -> Tabs_wal.Tid.t -> bool
