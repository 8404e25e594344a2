(** Exceptions of the TABS programming interface. *)

(** Raised in the application process when the transaction it is
    running under has been aborted by some other process (Table 3-2's
    [TransactionIsAborted] exception). *)
exception Transaction_is_aborted of Tabs_wal.Tid.t

(** Raised by server operations on bad arguments; carried across remote
    procedure calls. *)
exception Server_error of string

(** Raised when a lock request times out — the deadlock-resolution
    signal; the usual reaction is to abort the transaction. *)
exception Lock_timeout of Tabs_wal.Object_id.t

(** Nothing in the library raises it: deadlock is resolved by lock
    time-outs alone ({!Lock_timeout}). It stays declared for clients
    that still catch it. *)
exception Deadlock of Tabs_wal.Object_id.t

(** Raised by {!Cluster.run_fiber} when the driven fiber was killed by a
    crash of its node before completing. *)
exception Fiber_killed of { node : int }

(** Raised by {!Cluster.run_fiber} when the simulation went quiescent
    with the driven fiber unfinished: either it never ran at all, or it
    is suspended on a wait queue nobody will ever signal (a deadlock in
    the scenario being driven). [reason] says which. *)
exception Fiber_stalled of { node : int; reason : string }
