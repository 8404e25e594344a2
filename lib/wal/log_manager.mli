(** The node-wide common log.

    Log records are written into a volatile buffer and forced to stable
    storage by the write-ahead-log and commit protocols (Section 2.1.3).
    One force spools the whole buffer, charging one stable-storage write
    per 512-byte log page — which is why group commit makes the force
    count lower than the record count.

    A crash discards the volatile buffer: re-attach to the same
    {!Tabs_storage.Stable.t} to model restart. *)

type t

type lsn = Record.lsn

(** Trace events: every buffered record ([kind] names the record
    constructor, e.g. ["update_value"], ["commit"]) and every non-empty
    log force with what it spooled. *)
type Tabs_sim.Trace.event +=
  | Wal_append of { lsn : lsn; tid : Tid.t option; kind : string }
  | Log_force of { upto : lsn; records : int; bytes : int; pages : int }

(** [attach engine stable] opens the log; survives restart by reading
    [stable]'s current extent. *)
val attach : Tabs_sim.Engine.t -> Tabs_storage.Stable.t -> t

val stable : t -> Tabs_storage.Stable.t

(** [append t record] buffers [record] and returns its LSN. If the record
    is an update, the transaction's backward chain is threaded through
    automatically and the caller's [prev] field is overwritten. *)
val append : t -> Record.t -> lsn

(** [append_value t ~tid ~obj ~old_value ~new_value] builds and buffers a
    value-logging update with the correct backward-chain pointer. *)
val append_value :
  t ->
  tid:Tid.t ->
  obj:Object_id.t ->
  old_value:string ->
  new_value:string ->
  lsn

(** [append_operation t ~tid ~server ~operation ~undo_arg ~redo_arg
    ~pages] buffers an operation-logging update. [pages] names every
    page the operation writes; restart redo orders the record after the
    previous record on each of them. *)
val append_operation :
  t ->
  tid:Tid.t ->
  server:string ->
  operation:string ->
  undo_arg:string ->
  redo_arg:string ->
  pages:Tabs_storage.Disk.page_id list ->
  lsn

(** [last_lsn_of t tid] is the most recent update LSN of [tid], used for
    checkpointing and abort. *)
val last_lsn_of : t -> Tid.t -> lsn option

(** [oldest_first_lsn t] is the smallest first-update LSN over every
    live update chain — active transactions and subtransactions as well
    as prepared-but-unresolved (in-doubt) participants, whose chains
    stay registered until their verdict arrives. [None] when no chain is
    live. Log reclamation must not truncate at or past this LSN. *)
val oldest_first_lsn : t -> lsn option

(** [live_chain_firsts t] lists every live update chain with its
    first-update LSN, unordered — the raw material for a fuzzy
    checkpoint's active-transaction table. *)
val live_chain_firsts : t -> (Tid.t * lsn) list

(** [has_appended_outcome t tid] is whether a commit, abort, or end
    record for [tid] has been appended to the live log. The Transaction
    Manager's own bookkeeping lags the append while the commit force is
    in flight, so a fuzzy checkpoint taken in that window must consult
    the log — not the TM — to avoid listing a decided transaction as
    active. Entries below the truncation point are forgotten. *)
val has_appended_outcome : t -> Tid.t -> bool

(** [chained_tids_of_family t top] lists the transactions of [top]'s
    family (the top-level transaction and its subtransactions) that have
    live update chains — the set abort processing must undo. *)
val chained_tids_of_family : t -> Tid.t -> Tid.t list

(** [restore_chain t ~tid ~first ~last] re-registers a transaction's
    update chain after restart — used for prepared (in-doubt)
    transactions whose fate is decided, and possibly undone, after crash
    recovery. *)
val restore_chain : t -> tid:Tid.t -> first:lsn -> last:lsn -> unit

(** [next_lsn t] is the LSN the next append will receive. *)
val next_lsn : t -> lsn

(** [flushed_lsn t] — every record with LSN < [flushed_lsn t] is on
    stable storage. *)
val flushed_lsn : t -> lsn

(** [force t ~upto] makes records with LSN <= [upto] stable, charging
    stable-storage writes. Must run inside a fiber. No-op if already
    flushed. *)
val force : t -> upto:lsn -> unit

(** [force_all t] forces the entire buffer. *)
val force_all : t -> unit

(** [read t lsn] returns a record from the buffer or stable storage.
    Raises [Not_found] for truncated or unwritten LSNs. *)
val read : t -> lsn -> Record.t

(** [iter_forward t ~from ~f] applies [f] in LSN order to the end of the
    stable log (the buffer is not included: crash recovery only ever sees
    stable records). *)
val iter_forward : t -> from:lsn -> f:(lsn -> Record.t -> unit) -> unit

(** [first_lsn t] is the oldest live LSN on stable storage. *)
val first_lsn : t -> lsn

(** [last_checkpoint t] is the LSN of the most recent checkpoint record
    on stable storage, found by backward scan as at restart. *)
val last_checkpoint : t -> lsn option

(** [truncate t ~keep_from] reclaims log space before [keep_from]. *)
val truncate : t -> keep_from:lsn -> unit

(** Number of stable-storage force operations performed (statistics). *)
val force_count : t -> int

(** Live stable log size in bytes, driving the reclamation policy. *)
val stable_bytes : t -> int
