(** Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"):
    the non-blocking commit protocol behind
    {!Commit_protocol.Paxos}. One Paxos consensus instance per
    root-level participant — the instance's value is that participant's
    vote — replicated over 2F+1 acceptors on nodes 0..2F; the
    transaction commits iff every instance chooses Prepared.

    On the fast path (ballot 0) the coordinator is the leader and each
    participant's vote, multicast to the acceptors, doubles as the
    phase-2a message: the same two-message-delay critical path as 2PC.
    Once every instance holds F+1 Prepared accepts the outcome is
    quorum-durable, so the coordinator announces Commit {e without
    forcing a commit record}. If the coordinator goes silent, any
    acceptor takes over with a classic Paxos round at a higher ballot —
    proposing Aborted for instances with no accepted value — so in-doubt
    participants are released as long as F+1 acceptors survive.

    One [t] serves both roles on a node: acceptor state machine (when
    the node's id is <= 2F) and ballot-0 leader bookkeeping for
    transactions this node coordinates. Acceptor promises and accepts
    are logged ({!Tabs_wal.Record.Paxos_promise} /
    [Paxos_accept]) and forced through the Recovery Manager's group
    commit; they join no transaction chain, so the acceptor feeds
    {!Tabs_recovery.Recovery_mgr.set_truncation_floor_source} to keep
    reclamation from eating undecided consensus state. *)

type Tabs_sim.Trace.event +=
  | Paxos_vote_cast of {
      node : int;
      tid : Tabs_wal.Tid.t;
      part : int;
      yes : bool;
    }  (** a participant's vote multicast to the acceptors *)
  | Paxos_accepted of {
      node : int;
      tid : Tabs_wal.Tid.t;
      part : int;
      ballot : int;
      yes : bool;
    }  (** an acceptor logged an accept for one instance *)
  | Paxos_takeover of { node : int; tid : Tabs_wal.Tid.t; ballot : int }
      (** a node opened a ballot to resolve a stalled transaction *)
  | Paxos_decided of {
      node : int;
      tid : Tabs_wal.Tid.t;
      committed : bool;
      ballot : int;
    }  (** a node learned the global decision (ballot -1: by message) *)

type Tabs_net.Network.payload +=
  | Px_begin of { tid : Tabs_wal.Tid.t; parts : int list }
  | Px_vote of { tid : Tabs_wal.Tid.t; part : int; yes : bool }
  | Px_accepted0 of { tid : Tabs_wal.Tid.t; part : int; yes : bool }
  | Px_prepare_b of { tid : Tabs_wal.Tid.t; ballot : int }
  | Px_promise of {
      tid : Tabs_wal.Tid.t;
      ballot : int;
      parts : int list option;
      accepted : (int * int * bool) list;
    }
  | Px_propose of {
      tid : Tabs_wal.Tid.t;
      ballot : int;
      values : (int * bool) list;
    }
  | Px_accepted_b of { tid : Tabs_wal.Tid.t; ballot : int }
  | Px_decision of { tid : Tabs_wal.Tid.t; committed : bool }
  | Px_status_query of Tabs_wal.Tid.t

type t

(** [create engine ~node ~f ~rm ~cm ()] builds the node's Paxos Commit
    role(s), registers the datagram handler for the [Px_*] payloads, and
    wires the acceptor's log-truncation floor into [rm]. Every node of a
    [Paxos {f}] cluster creates one. *)
val create :
  Tabs_sim.Engine.t ->
  node:int ->
  f:int ->
  rm:Tabs_recovery.Recovery_mgr.t ->
  cm:Tabs_net.Comm_mgr.t ->
  unit ->
  t

(** The acceptor node ids (0..2F). *)
val acceptors : t -> int list

(** {2 Coordinator (ballot-0 leader) side} *)

(** [begin_leader t tid ~parts] opens leader bookkeeping for [tid] and
    announces the instance set (the root participants, coordinator
    included) to the acceptors. Called at prepare time. *)
val begin_leader : t -> Tabs_wal.Tid.t -> parts:int list -> unit

(** [cast_vote t tid ~part ~yes] multicasts instance [part]'s vote to
    the acceptors — the ballot-0 phase-2a message. Participants cast
    their own votes; the coordinator also casts on behalf of read-only
    children (their instances must exist, or a takeover would choose
    Aborted for them and split from a coordinator that committed). *)
val cast_vote : t -> Tabs_wal.Tid.t -> part:int -> yes:bool -> unit

(** [await_quorum t tid ~timeout] blocks the coordinator until every
    instance holds F+1 Prepared accepts ([`Commit]), some acceptor
    reported an Aborted accept ([`Abort]), a racing takeover decided
    ([`Decided committed]), or the timeout passed. *)
val await_quorum :
  t ->
  Tabs_wal.Tid.t ->
  timeout:int ->
  [ `Commit | `Abort | `Decided of bool | `Timeout ]

(** [announce t tid ~committed] records the coordinator's fast-path
    decision and multicasts it to the acceptors. No log force needed:
    the accept quorums are already stable. *)
val announce : t -> Tabs_wal.Tid.t -> committed:bool -> unit

(** [resolve_as_coordinator t tid] — a coordinator whose vote phase
    timed out must not presume abort unilaterally (a silent
    participant's Prepared vote may already sit in an acceptor quorum):
    it runs a full ballot and returns the decided outcome. Blocks until
    F+1 acceptors are reachable. *)
val resolve_as_coordinator : t -> Tabs_wal.Tid.t -> bool

(** [end_leader t tid] drops leader bookkeeping after phase two. *)
val end_leader : t -> Tabs_wal.Tid.t -> unit

(** {2 Shared} *)

(** [decision_of t tid] — the globally decided outcome, if this node has
    learned it. *)
val decision_of : t -> Tabs_wal.Tid.t -> bool option

(** [reseed t records] replays the condensed acceptor records a restart
    recovered ({!Tabs_recovery.Recovery_mgr.recovery_outcome}[.paxos]):
    promises, accepts and decisions are reinstalled, the truncation
    floor is restored from the records' re-appended LSNs, and takeover
    watchdogs restart for still-undecided transactions. *)
val reseed : t -> (Tabs_wal.Record.lsn * Tabs_wal.Record.t) list -> unit
