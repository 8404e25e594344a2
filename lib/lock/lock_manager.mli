(** Per-server lock manager.

    Servers implement locking locally (Section 2.1.3), so each data
    server owns one lock manager, created with its compatibility
    relation. Deadlock is resolved by time-outs, like TABS ("TABS, like
    many other systems, currently relies on time-outs"). All unlocking is
    done automatically at commit or abort time (Section 3.1.1).

    Subtransaction semantics follow Section 2.1.3: an active
    subtransaction synchronizes as a completely separate transaction (two
    siblings can deadlock); when a subtransaction finishes successfully
    its locks pass to its parent, and when it aborts they are released.
    As a divergence made explicit here, a transaction is never blocked by
    locks held solely by its own ancestors. *)

type t

(** Trace events (see {!Tabs_sim.Trace}): a request joining the wait
    queue, a queued request being granted, and a wait expiring. [waited]
    is the virtual time spent queued. Immediate grants are not traced. *)
type Tabs_sim.Trace.event +=
  | Lock_wait of {
      tid : Tabs_wal.Tid.t;
      obj : Tabs_wal.Object_id.t;
      mode : Mode.t;
    }
  | Lock_granted of {
      tid : Tabs_wal.Tid.t;
      obj : Tabs_wal.Object_id.t;
      mode : Mode.t;
      waited : int;
    }
  | Lock_timed_out of {
      tid : Tabs_wal.Tid.t;
      obj : Tabs_wal.Object_id.t;
      mode : Mode.t;
      waited : int;
    }

type outcome = Granted | Timed_out

val create :
  ?compatible:Mode.compat ->
  ?default_timeout:int ->
  Tabs_sim.Engine.t ->
  unit ->
  t

(** [lock t tid key mode] waits until the lock is granted or the timeout
    (explicitly set by system users, defaulting to the manager's)
    expires. Re-requesting a held mode is granted immediately; an upgrade
    waits for conflicting holders. Must run inside a fiber. *)
val lock :
  t -> Tabs_wal.Tid.t -> Tabs_wal.Object_id.t -> Mode.t -> ?timeout:int ->
  unit -> outcome

(** [try_lock t tid key mode] is the server library's
    [ConditionallyLockObject]: acquire without waiting, reporting
    success. *)
val try_lock : t -> Tabs_wal.Tid.t -> Tabs_wal.Object_id.t -> Mode.t -> bool

(** [is_locked t key] is the server library's [IsObjectLocked]. *)
val is_locked : t -> Tabs_wal.Object_id.t -> bool

(** [held_by t tid] lists the keys [tid] currently holds. *)
val held_by : t -> Tabs_wal.Tid.t -> Tabs_wal.Object_id.t list

(** [release_all t tid] drops every lock held by [tid] (commit or abort
    of a top-level transaction, or abort of a subtransaction) and grants
    eligible waiters. *)
val release_all : t -> Tabs_wal.Tid.t -> unit

(** [release_subtree t tid] drops the locks of [tid] and of every
    descendant subtransaction — the unlock when a subtransaction
    subtree aborts. *)
val release_subtree : t -> Tabs_wal.Tid.t -> unit

(** [release_family t top] drops the locks of [top]'s whole family —
    the automatic unlock at top-level commit or abort. *)
val release_family : t -> Tabs_wal.Tid.t -> unit

(** [transfer_to_parent t tid] passes the subtransaction's locks to its
    parent when it finishes (merging with locks the parent already
    holds) and grants the waiters this admits, such as a sibling queued
    behind [tid]. Raises [Invalid_argument] on a top-level tid. *)
val transfer_to_parent : t -> Tabs_wal.Tid.t -> unit

(** [total_holds t] counts (holder, key) hold entries across the whole
    table — zero exactly when no transaction holds any lock. Lets tests
    assert that a workload left nothing locked behind. *)
val total_holds : t -> int

(** [waiting t] counts live (non-cancelled) queued waiters. *)
val waiting : t -> int

(** [entries t] counts the keys with a hold or a live waiter. *)
val entries : t -> int

(** Number of lock requests that have timed out (deadlock statistic). *)
val timeouts : t -> int
