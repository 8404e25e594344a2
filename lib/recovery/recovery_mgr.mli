(** The Recovery Manager: log access coordination, write-ahead-log
    enforcement, transaction abort, checkpointing, log reclamation, and
    crash recovery (Section 3.2.2).

    Both of the paper's recovery techniques co-exist over the common log:

    - {e value logging} — old/new images restored in a single backward
      pass at crash recovery;
    - {e operation logging} — server-registered logical undo/redo,
      replayed by a three-pass algorithm (analysis, redo, undo) gated by
      the 39-bit per-sector sequence numbers the kernel writes atomically
      with each page.

    A [t] is volatile; after a crash build a fresh one over the surviving
    stable log and disk, then call {!recover}. *)

type t

(** Status of a top-level transaction as determined from the log. *)
type txn_status =
  | Committed
  | Aborted
  | Prepared of int  (** in doubt; argument is the coordinator node *)
  | Active  (** no outcome on the log: a loser at crash recovery *)

(** Trace events: a checkpoint record written (with the table sizes it
    captured), the completion of a crash-recovery pass, and — under
    instant restart — each parked per-page chain replayed after the
    node opened ([via] is ["fault"] for redo-on-first-touch, ["trickle"]
    for the background drain; [records] counts the chain records the
    replay drained, [pending] the chains still parked afterwards). *)
type Tabs_sim.Trace.event +=
  | Rm_checkpoint of {
      node : int;
      lsn : int;
      dirty : int;
      active : int;
      prepared : int;
    }
  | Rm_recovered of {
      node : int;
      scanned : int;
      losers : int;
      in_doubt : int;
    }
  | Rm_ondemand_redo of {
      node : int;
      segment : int;
      page : int;
      records : int;
      via : string;
      pending : int;
    }

(** Logical undo/redo callbacks a data server registers for its
    operation-logged objects. They run during abort and crash recovery,
    with the server's recoverable segment already mapped; [redo] must be
    idempotent at page granularity (the sequence-number gate is
    per page). *)
type op_handler = { redo : op:string -> arg:string -> unit;
                    undo : op:string -> arg:string -> unit }

(** The summary {!recover} returns to the node's Transaction Manager. *)
type recovery_outcome = {
  losers : Tabs_wal.Tid.t list;
      (** active transactions rolled back (abort records written) *)
  in_doubt : (Tabs_wal.Tid.t * int) list;
      (** prepared transactions and their coordinator nodes; their
          updates are applied but their locks must be re-taken until the
          coordinator's verdict arrives *)
  statuses : (Tabs_wal.Tid.t * txn_status) list;
      (** every top-level transaction the analysis scan saw, with its
          resolved fate, sorted by tid: the Transaction Manager
          re-learns its decided outcomes from these *)
  written_objects : (Tabs_wal.Tid.t * Tabs_wal.Object_id.t) list;
      (** objects updated by in-doubt transactions, for lock
          re-acquisition *)
  records_scanned : int;
  replay_us : int;
      (** virtual microseconds spent in the redo and undo passes —
          excludes the analysis scan, so the effect of parallel redo
          fan-out is measurable in isolation *)
  graph : Parallel_redo.stats;
      (** shape of the redo graph the restart built — every restart
          replays through one, whatever its schedule *)
  paxos : (Tabs_wal.Record.lsn * Tabs_wal.Record.t) list;
      (** surviving Paxos Commit acceptor records (condensed: decisions
          for decided transactions; highest promise and highest-ballot
          accepts for undecided ones), already re-appended above the
          closing checkpoint so reclamation cannot eat them. The
          Transaction Manager reseeds its acceptor from these; the LSNs
          restore the acceptor's log-truncation floor. *)
  open_early : bool;
      (** instant restart: the node opened right after the analysis
          scan, with redo parked as per-page chains; [false] after a
          full (eager) replay *)
  time_to_open_us : int;
      (** virtual microseconds from entering {!recover} until the node
          could accept transactions — the whole recovery for an eager
          restart, analysis plus bookkeeping only for an instant one *)
}

(** [create engine ~node ~log ~vm ?profile ?group_commit
    ?log_space_limit ()] — under {!Tabs_sim.Profile.Integrated} the
    Recovery Manager is co-located with the Transaction Manager and the
    kernel (Section 5.3), so the TM's log-record traffic to it costs no
    message primitives (the hops are counted as elided); under [Classic]
    (the default) each hop is an Accent small message, as the paper
    measured. [?group_commit] starts a {!Group_commit} force batcher
    through which {!force_through} coalesces concurrent commit-protocol
    forces; omitted (the default), every force pays its own
    stable-storage round, exactly as the paper measured.
    [?checkpointing] starts a background {!Checkpointer} daemon that
    trickle-writes dirty pages, takes a fuzzy checkpoint at most once
    per that many microseconds of virtual time, and
    reclaims the log in the background — with it configured,
    {!maybe_reclaim} never flushes on the foreground path. Omitted (the
    default), checkpoints happen only where callers ask for them,
    exactly as before.

    The last two arguments pick how {!recover} schedules its redo graph
    ({!Parallel_redo}); neither changes what forward processing logs.
    [?parallel_recovery] drains the redo phases over that many
    simulator fibers; omitted (the default), the graph drains
    inline at one fiber — the paper's serial passes, record for record.
    [?instant_restart] (default [false]) opens the node right after
    analysis and drains the graph a page at a time, on first touch
    behind the {!Tabs_accent.Vm} access gate and by a background
    trickle. With neither, every virtual timing is the paper's. *)
val create :
  Tabs_sim.Engine.t ->
  node:int ->
  log:Tabs_wal.Log_manager.t ->
  vm:Tabs_accent.Vm.t ->
  ?profile:Tabs_sim.Profile.t ->
  ?group_commit:Group_commit.config ->
  ?checkpointing:int ->
  ?log_space_limit:int ->
  ?parallel_recovery:int ->
  ?instant_restart:bool ->
  unit ->
  t

val log : t -> Tabs_wal.Log_manager.t

(** [register_op_handler t ~server handler] installs the logical
    undo/redo code for [server]'s operation-logged objects. *)
val register_op_handler : t -> server:string -> op_handler -> unit

(** [set_active_txns_source t f] — the Transaction Manager supplies the
    list of in-progress transactions for checkpoint records. *)
val set_active_txns_source : t -> (unit -> Tabs_wal.Tid.t list) -> unit

(** [set_prepared_source t f] — the Transaction Manager supplies the
    prepared-but-unresolved participants (with their coordinator nodes)
    for checkpoint records, so a checkpoint-anchored restart can seed
    its in-doubt table without scanning back to the prepare records. *)
val set_prepared_source : t -> (unit -> (Tabs_wal.Tid.t * int) list) -> unit

(** [set_truncation_floor_source t f] — the Transaction Manager's Paxos
    acceptor supplies the LSN of the oldest log record still backing
    undecided consensus state. Acceptor records join no transaction
    chain, so both reclamation paths (foreground {!maybe_reclaim} and
    the background {!Checkpointer}) consult this extra floor before
    truncating. *)
val set_truncation_floor_source :
  t -> (unit -> Tabs_wal.Record.lsn option) -> unit

(** {2 Forward processing} *)

(** [log_value t ~tid ~obj ~old_value ~new_value] spools a value-logging
    record (one large Accent message from server to Recovery Manager plus
    spooling CPU) and returns its LSN. The caller must hold the object
    pinned; its pages' recovery LSNs are maintained. *)
val log_value :
  t ->
  tid:Tabs_wal.Tid.t ->
  obj:Tabs_wal.Object_id.t ->
  old_value:string ->
  new_value:string ->
  Tabs_wal.Record.lsn

(** [log_operation t ~tid ~server ~op ~undo_arg ~redo_arg ~objs]
    spools an operation-logging record covering the pages of all of
    [objs] — one record may describe an operation on a multi-page
    object. Redo arguments are self-contained, so the pages written are
    all restart needs to order the record. *)
val log_operation :
  t ->
  tid:Tabs_wal.Tid.t ->
  server:string ->
  op:string ->
  undo_arg:string ->
  redo_arg:string ->
  objs:Tabs_wal.Object_id.t list ->
  Tabs_wal.Record.lsn

(** [append_tm_record t record] writes a transaction-management record on
    behalf of the Transaction Manager (one small message). *)
val append_tm_record : t -> Tabs_wal.Record.t -> Tabs_wal.Record.lsn

(** [force_through t lsn] makes the log stable through [lsn] — the
    commit-protocol force. With group commit enabled the calling fiber
    joins the node's current force batch and may sleep up to the batch
    window; without it the force is issued immediately. *)
val force_through : t -> Tabs_wal.Record.lsn -> unit

(** The force batcher, when one was configured. *)
val group_commit : t -> Group_commit.t option

(** The background checkpoint daemon, when one was configured. *)
val checkpointer : t -> Checkpointer.t option

(** {2 Abort}

    [abort t ~tid] follows the backward chain of [tid]'s log records,
    restoring value-logged objects and invoking operation undo handlers,
    then writes the abort record. Undoes only [tid]'s own updates (a
    subtransaction aborts independently of its parent). *)
val abort : t -> tid:Tabs_wal.Tid.t -> unit

(** {2 Checkpoints and reclamation} *)

(** [checkpoint t] writes a {e fuzzy} checkpoint record — the dirty
    pages with their recovery LSNs, the first-update LSN of every live
    transaction family, and the unresolved prepared participants — and
    forces the log. No data page is written. *)
val checkpoint : t -> Tabs_wal.Record.lsn

(** [maybe_reclaim t] runs the reclamation algorithm if the live log
    exceeds the space limit. With a {!Checkpointer} configured it only
    requests a background cycle and returns [false] — the foreground
    transaction never flushes. Without one it forces pages to disk
    ("before they would otherwise be written"), checkpoints, and
    truncates the log prefix no longer needed by any dirty page, active
    transaction, or in-doubt participant. Returns true if space was
    reclaimed synchronously. *)
val maybe_reclaim : t -> bool

(** {2 Crash recovery} *)

(** [recover t] runs at node restart. An analysis scan resolves every
    transaction's fate; {!Parallel_redo.build} turns the scanned records
    into one redo graph whose phases are the paper's two techniques —
    value-logged objects restored newest-first, operation-logged
    objects redone forward and their losers undone backward, gated on
    sector sequence numbers. Abort records are written for losers, and
    once the graph is drained the segments reflect exactly the
    committed and prepared transactions.

    The analysis scan is anchored at the last stable checkpoint: it
    starts at the minimum of the checkpoint's LSN, its dirty pages'
    recovery LSNs, and its live families' first-update LSNs, seeding
    transaction statuses from the checkpoint's tables. Without a
    checkpoint it scans the whole live log.

    Eager and instant restarts differ only in the schedule. Eager (the
    default) drains both redo phases — over N fibers with
    [?parallel_recovery], inline otherwise — then loser undo at one
    fiber, flushes, checkpoints and reclaims, all before returning.

    With [?instant_restart] configured at {!create}, [recover] returns
    right after the analysis scan and the restart bookkeeping (loser
    roll-back records, in-doubt chain re-registration, Paxos acceptor
    condensation): the outcome has [open_early = true], [replay_us = 0],
    and the whole graph parked. The first transaction to touch a page
    drains that page's closure before its access proceeds; a trickle
    fiber drains untouched pages oldest-first and, once nothing is
    pending, flushes, checkpoints, and reclaims the log as an eager
    restart would have. Fuzzy checkpoints taken while pages are pending
    report them at their oldest parked record, so a re-crash in the
    serving window recovers correctly. *)
val recover : t -> recovery_outcome

(** [await_open t] parks the calling fiber until the in-progress
    {!recover} returns — the moment the node opens for service. Server
    operations racing a restart call this before touching data: on a
    full restart the store is consistent only after replay, and on an
    instant restart analysis must finish installing the per-page gates
    first. Free (not even a suspension) when the node is already
    open. *)
val await_open : t -> unit

(** [set_apply_hook t (Some f)] installs test instrumentation: [f] is
    called, in application order, for every redo or undo actually
    applied by {!recover} — [~phase] is ["op_redo"], ["value_redo"],
    ["value_undo"], or ["op_undo"] — whichever schedule drains the redo
    graph: inline, over fibers, or a page at a time. [None] (the
    default) costs nothing. *)
val set_apply_hook :
  t -> (phase:string -> lsn:Tabs_wal.Record.lsn -> unit) option -> unit
