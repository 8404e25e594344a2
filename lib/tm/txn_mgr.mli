(** The Transaction Manager: globally unique transaction identifiers,
    commit and abort protocols, and the subtransaction model
    (Section 3.2.3).

    Distributed commitment uses the tree-structured variant of two-phase
    commit: each node coordinates the nodes that are its children in the
    spanning tree the Communication Manager recorded while the
    transaction spread. Commit protocol messages travel as datagrams.

    Under the default {!Commit_protocol.Two_phase}, the paper's known
    failure mode is preserved: a subordinate that prepared and then
    lost its coordinator holds its data inaccessible (locks re-taken at
    restart) until the coordinator answers a status query — the classic
    two-phase-commit blocking window. {!Commit_protocol.Paxos} removes
    it: root-level votes are replicated to 2F+1 acceptors ({!Paxos})
    and any acceptor resolves a stalled transaction by consensus, so
    progress survives coordinator failure as long as F+1 acceptors
    do.

    Subtransactions behave as in Section 2.1.3: beginning one requires
    only its parent's identifier, committing one merely passes its locks
    to the parent (it is not durable until the top-level transaction
    commits), and aborting one undoes and releases only its own subtree
    without disturbing the parent. *)

type t

type outcome = Committed | Aborted

(** Phase-one replies: [Read_only] is the vote of a subtree that logged
    nothing and can skip phase two. A node votes [No] when its subtree
    aborted, or when it has no record of the transaction: it restarted
    since the transaction reached it (presumed abort). *)
type vote = Yes | No | Read_only

(** Trace events for transaction lifecycle and 2PC phase transitions.
    [node] is the node observing the transition: the coordinator's
    [Txn_begin]/[Txn_commit]/[Txn_abort] bracket the transaction, while
    subordinates emit their own outcome events ([Txn_commit] /
    [Txn_abort] with reason [Remote_verdict]) when applying the
    coordinator's verdict. *)
type Tabs_sim.Trace.event +=
  | Txn_begin of { node : int; tid : Tabs_wal.Tid.t }
  | Txn_commit of { node : int; tid : Tabs_wal.Tid.t; distributed : bool }
  | Txn_abort of {
      node : int;
      tid : Tabs_wal.Tid.t;
      reason : Tabs_sim.Trace.abort_reason;
    }
  | Prepare_sent of { node : int; tid : Tabs_wal.Tid.t; dests : int list }
  | Prepare_received of { node : int; tid : Tabs_wal.Tid.t; src : int }
  | Vote_sent of { node : int; tid : Tabs_wal.Tid.t; dest : int; vote : vote }
  | Vote_received of {
      node : int;
      tid : Tabs_wal.Tid.t;
      src : int;
      vote : vote;
    }
  | Verdict_sent of {
      node : int;
      tid : Tabs_wal.Tid.t;
      outcome : outcome;
      dests : int list;
    }
  | Verdict_received of {
      node : int;
      tid : Tabs_wal.Tid.t;
      outcome : outcome;
      src : int;
    }
  | Ack_received of { node : int; tid : Tabs_wal.Tid.t; src : int }
  | Prepared_in_doubt of {
      node : int;
      tid : Tabs_wal.Tid.t;
      coordinator : int;
    }
  | In_doubt_resolved of {
      node : int;
      tid : Tabs_wal.Tid.t;
      outcome : outcome;
    }
  | Status_query_sent of {
      node : int;
      tid : Tabs_wal.Tid.t;
      coordinator : int;
    }
  | Resolution_abandoned of {
      node : int;
      tid : Tabs_wal.Tid.t;
      coordinator : int;
      attempts : int;
    }
      (** an in-doubt resolver or orphan watchdog exhausted its
          status-query budget with the transaction still undecided
          here: its write locks stay held forever. Also counted in
          {!Tabs_sim.Metrics.tm} and {!resolutions_abandoned}. *)

(** The commit-protocol datagram vocabulary, exposed for tests and
    monitoring tools. *)
type Tabs_net.Network.payload +=
  | Tm_prepare of Tabs_wal.Tid.t
  | Tm_vote of Tabs_wal.Tid.t * vote
  | Tm_commit of Tabs_wal.Tid.t
  | Tm_abort of Tabs_wal.Tid.t
  | Tm_ack of Tabs_wal.Tid.t
  | Tm_status_query of Tabs_wal.Tid.t
  | Tm_status_reply of Tabs_wal.Tid.t * outcome

(** What a data server must provide to take part in transaction
    completion; registered once per server at startup. A server never
    refuses to prepare, so it has no vote callback. *)
type server_callbacks = {
  on_outcome : Tabs_wal.Tid.t -> outcome -> unit;
      (** top-level verdict: release the family's locks (undo of aborted
          updates has already been performed by the Recovery Manager) *)
  on_subtxn_commit : Tabs_wal.Tid.t -> unit;
      (** pass the subtransaction's locks to its parent *)
  on_subtxn_abort : Tabs_wal.Tid.t -> unit;
      (** release the aborted subtransaction's locks *)
}

(** Under {!Tabs_sim.Profile.Integrated} (Section 5.3) the second phase
    of a distributed commit — outcome distribution, acknowledgement
    gathering, and the Txn_end record — runs in a background fiber so it
    overlaps with succeeding transactions; under [Classic] (the default)
    it stays on the caller's critical path, as the prototype measured.
    The log records written and the verdicts returned are identical in
    both profiles.

    [commit_protocol] is a cluster-wide convention; under the default
    {!Commit_protocol.Two_phase} nothing of the Paxos machinery —
    messages, handlers, log records — exists.

    [read_only_optimization] (default true) lets subtrees that logged
    nothing vote Read_only and drop out of phase two; disabling it
    exists for the ablation benchmark. A child that has not voted
    within 2 s is presumed crashed. Every 50 commits the Transaction
    Manager asks the Recovery Manager for a system checkpoint and, if
    the log is near its space limit, reclamation. *)
val create :
  Tabs_sim.Engine.t ->
  node:int ->
  rm:Tabs_recovery.Recovery_mgr.t ->
  cm:Tabs_net.Comm_mgr.t ->
  ?profile:Tabs_sim.Profile.t ->
  ?commit_protocol:Commit_protocol.t ->
  ?read_only_optimization:bool ->
  unit ->
  t

(** [distributed_commits t] counts the committed tree two-phase-commit
    rounds this Transaction Manager coordinated (benchmark
    accounting, e.g. wire messages per remote commit). *)
val distributed_commits : t -> int

(** [register_server t ~name callbacks] — data servers announce
    themselves so the Transaction Manager knows whom to inform at
    completion. *)
val register_server : t -> name:string -> server_callbacks -> unit

(** [begin_txn t] starts a new top-level transaction (the library's
    [BeginTransaction] with the null identifier). One message round-trip
    with the application. Must run inside a fiber. *)
val begin_txn : t -> Tabs_wal.Tid.t

(** [begin_subtxn t parent] starts a subtransaction of [parent]. *)
val begin_subtxn : t -> Tabs_wal.Tid.t -> Tabs_wal.Tid.t

(** [join t ~tid ~server] — a data server reports an operation it
    performs on behalf of [tid], so the Transaction Manager knows to
    inform it at completion. The server's first report for [tid]'s
    family costs one message and returns [true], and a later one returns
    [false]: the Transaction Manager alone keeps the joined servers. *)
val join : t -> tid:Tabs_wal.Tid.t -> server:string -> bool

(** [commit t tid] attempts commitment and reports the verdict.

    Top-level: if the Communication Manager saw no remote spread, a
    purely local commit (forcing the log only when updates were made);
    otherwise the full tree two-phase commit, with the read-only
    optimization for subtrees that logged nothing. Under
    {!Commit_protocol.Paxos} the same tree commit is decided at an
    acceptor quorum instead of the forced commit record.

    Subtransaction: passes locks to the parent, always [Committed]
    (durability awaits the top-level commit). *)
val commit : t -> Tabs_wal.Tid.t -> outcome

(** [abort t tid] forces the transaction or subtransaction to abort:
    undoes its subtree via the Recovery Manager, releases its locks, and
    for distributed top-level transactions informs remote participants.
    [reason] (default [Explicit]) classifies the abort in the trace
    stream; it has no protocol effect. *)
val abort : t -> ?reason:Tabs_sim.Trace.abort_reason -> Tabs_wal.Tid.t -> unit

(** [is_aborted t tid] — supports the library's [TransactionIsAborted]
    exception: true once [tid] or an ancestor has aborted. *)
val is_aborted : t -> Tabs_wal.Tid.t -> bool

(** [active_txns t] lists the undecided top-level transactions with
    joined servers here; it feeds checkpoint records. *)
val active_txns : t -> Tabs_wal.Tid.t list

(** [recover t outcome] is called at node restart with the Recovery
    Manager's summary: it re-registers in-doubt transactions and starts
    resolver fibers that query each coordinator (presumed-abort: a
    coordinator with no memory of the transaction answers Aborted).
    Returns immediately. *)
val recover : t -> Tabs_recovery.Recovery_mgr.recovery_outcome -> unit

(** [in_doubt t] lists transactions still awaiting their coordinator's
    verdict. *)
val in_doubt : t -> Tabs_wal.Tid.t list

(** [resolutions_abandoned t] — how many in-doubt (or orphaned)
    transactions this node gave up querying about, each still blocked
    with locks held; read it alongside {!in_doubt}. *)
val resolutions_abandoned : t -> int

(** [hold_status_queries t] silences {!Tm_status_query} answering until
    the next {!recover} completes. {!Tabs_core.Node.restart} calls it
    between rebuilding the managers and replaying the log: in that
    window the node has genuinely "no record" of transactions it
    decided before the crash, and answering presumed-abort then could
    split a committed transaction's outcome. *)
val hold_status_queries : t -> unit

(** [outcome_of t tid] answers status queries (and tests): the locally
    known verdict, if any. *)
val outcome_of : t -> Tabs_wal.Tid.t -> outcome option
