(** The TABS transaction management library (Table 3-2).

    Thin application-side veneer over the Transaction Manager:
    [BeginTransaction] (a null parent identifier creates a new top-level
    transaction), [EndTransaction] returning a commit verdict,
    [AbortTransaction], and the [TransactionIsAborted] exception
    ({!Errors.Transaction_is_aborted}). *)

(** [begin_transaction tm ?parent ()] — with [parent] creates a
    subtransaction, otherwise a new top-level transaction. *)
val begin_transaction :
  Tabs_tm.Txn_mgr.t -> ?parent:Tabs_wal.Tid.t -> unit -> Tabs_wal.Tid.t

(** [end_transaction tm tid] initiates commit; true on commit. *)
val end_transaction : Tabs_tm.Txn_mgr.t -> Tabs_wal.Tid.t -> bool

val abort_transaction : Tabs_tm.Txn_mgr.t -> Tabs_wal.Tid.t -> unit

(** [execute_transaction tm f] runs [f] inside a fresh top-level
    transaction, committing on return and aborting if [f] raises (the
    exception is re-raised). Raises {!Errors.Transaction_is_aborted}
    when commitment fails. *)
val execute_transaction : Tabs_tm.Txn_mgr.t -> (Tabs_wal.Tid.t -> 'a) -> 'a

(** [with_subtransaction tm parent f] runs [f] in a subtransaction:
    committing passes its locks to [parent]; an exception aborts only
    the subtransaction subtree and is re-raised — the paper's
    "subtransactions that abort independently permit their parent to
    tolerate the failure of some operations". *)
val with_subtransaction :
  Tabs_tm.Txn_mgr.t -> Tabs_wal.Tid.t -> (Tabs_wal.Tid.t -> 'a) -> 'a
