(** Write-ahead log records.

    The common log holds both value-logging and operation-logging update
    records side by side (Section 2.1.3 — "two co-existing write-ahead
    logging techniques ... share a common log"), transaction management
    records written on behalf of the Transaction Manager, and checkpoint
    records written by the Recovery Manager. *)

(** Log sequence number: position of a record in the node's log. *)
type lsn = int

(** A value-logging update: old and new images of at most one page of an
    object's representation. [prev] chains this transaction's updates
    backward for abort processing. *)
type update_value = {
  tid : Tid.t;
  obj : Object_id.t;
  old_value : string;
  new_value : string;
  prev : lsn option;
}

(** An operation-logging update: the name of an operation and enough
    information to invoke its redo or undo; may cover a multi-page
    object. [pages] are the pages whose sector sequence numbers gate
    redo. *)
type update_operation = {
  tid : Tid.t;
  server : string;
  operation : string;
  undo_arg : string;
  redo_arg : string;
  pages : Tabs_storage.Disk.page_id list;
  prev : lsn option;
}

type checkpoint = {
  dirty_pages : (Tabs_storage.Disk.page_id * lsn) list;
      (** pages in volatile storage and their recovery LSNs — the LSN of
          the earliest update not yet reflected on disk (recovery must
          start no later). *)
  active_txns : (Tid.t * lsn option) list;
      (** transactions in progress (including prepared ones) and the
          earliest update LSN of any member of their family, [None] if
          the family has logged no update yet. Checkpoint-anchored
          analysis starts its scan no later than the smallest of these. *)
  prepared : (Tid.t * int) list;
      (** prepared-but-unresolved participants and their coordinator
          nodes: their prepare records may predate the checkpoint, so
          analysis seeds their in-doubt status from here. *)
  acceptor_floor : lsn option;
      (** the oldest log record backing Paxos Commit acceptor state,
          [None] if there is none. Those records belong to no local
          transaction, so no other field reaches them; checkpoint-anchored
          analysis starts its scan no later than this. *)
}

type t =
  | Update_value of update_value
  | Update_operation of update_operation
  | Txn_begin of Tid.t
  | Txn_commit of Tid.t
  | Txn_abort of Tid.t
  | Txn_prepare of Tid.t * int  (** prepared; int is the coordinator node *)
  | Txn_end of Tid.t  (** two-phase commit completed, outcome fully acked *)
  | Checkpoint of checkpoint
  | Paxos_promise of { tid : Tid.t; ballot : int }
      (** Paxos Commit acceptor: promised to ignore ballots below
          [ballot] for this transaction's consensus instances *)
  | Paxos_accept of { tid : Tid.t; part : int; ballot : int; yes : bool }
      (** Paxos Commit acceptor: accepted value [yes] (Prepared /
          Aborted) at [ballot] for participant [part]'s instance *)
  | Paxos_decision of { tid : Tid.t; committed : bool }
      (** Paxos Commit acceptor: learned the transaction's outcome *)

(** [tid_of t] is the transaction a record belongs to, if any. *)
val tid_of : t -> Tid.t option

(** [kind t] names the record's constructor, as traces show it. *)
val kind : t -> string

val encode : t -> string

(** Raises [Codec.Reader.Malformed] on corrupt input. *)
val decode : string -> t
