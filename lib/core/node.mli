(** One TABS node: the Accent kernel plus the four TABS system processes
    of Figure 3-1 (Name Server, Communication Manager, Recovery Manager,
    Transaction Manager), assembled over the node's disk and stable
    log.

    The disk and stable log survive crashes; everything else is
    volatile. {!crash} kills the node's fibers and silences it on the
    network; {!restart} rebuilds the volatile half, re-installs data
    servers, and runs crash recovery. *)

type t

(** [?profile] selects the node's architecture (default
    {!Tabs_sim.Profile.Classic}, the measured prototype). Under
    {!Tabs_sim.Profile.Integrated} the Transaction Manager, Recovery
    Manager, and kernel share one process (Section 5.3): messages
    between them become procedure calls (counted as elided, not
    charged) and the second phase of distributed commits overlaps with
    succeeding transactions. Log records, lock behavior, and commit
    outcomes are identical in both profiles. The profile survives
    {!crash}/{!restart}.

    [?group_commit] enables the {!Tabs_recovery.Group_commit} force
    batcher: commit-protocol log forces arriving within its 5 ms window
    (or up to its 64-request cap) share one stable-storage round. Off by
    default — the Section 5 latency tables and the Classic/Integrated
    equivalence are byte-identical to a build without the batcher. The
    setting survives {!crash}/{!restart}.

    [?checkpointing] starts the {!Tabs_recovery.Checkpointer} daemon
    with that interval in microseconds of virtual time
    ({!Tabs_recovery.Checkpointer.default} is 500 ms): fuzzy
    checkpoints, trickled page write-back, and background log
    reclamation, anchoring restart recovery at the last checkpoint. Off
    by default for the same reason as [?group_commit]. The setting
    survives {!crash}/{!restart}.

    [?parallel_recovery] makes restart recovery drain its redo graph
    over that many simulator fibers
    ({!Tabs_recovery.Parallel_redo}). Off by default — the same graph
    then drains inline at one fiber, the paper's serial passes. The
    setting survives {!crash}/{!restart}.

    [?instant_restart] makes {!restart}'s recovery open the node after
    the analysis scan alone and drain the same redo graph a page at a
    time: on the first touch of each page, and in the background by a
    trickle fiber ({!Tabs_recovery.Recovery_mgr}). Off by default — no
    access gate is installed and restart drains eagerly. The setting
    survives {!crash}/{!restart}. Neither restart option changes what
    forward processing logs.

    [?comm_batching] enables the Communication Manager's comm-batching
    layer ({!Tabs_net.Comm_mgr.batching}): piggybacked/delayed session
    acks and datagram coalescing. Off by default for the same reason as
    [?group_commit]. The setting survives {!crash}/{!restart} (each new
    incarnation starts with empty batches).

    [?commit_protocol] selects the distributed commit protocol — a
    cluster-wide convention, so every node of a cluster must be given
    the same value. The default {!Tabs_tm.Commit_protocol.Two_phase} is
    the paper's tree two-phase commit, byte-identical to a build
    without the alternative. [Paxos {f}] replicates root-level votes
    over the 2F+1 acceptors on nodes 0..2F ({!Tabs_tm.Paxos}), making
    commitment non-blocking under coordinator failure. Survives
    {!crash}/{!restart} (acceptor state is recovered from the log). *)
val create :
  Tabs_sim.Engine.t ->
  Tabs_net.Network.t ->
  id:int ->
  ?profile:Tabs_sim.Profile.t ->
  ?group_commit:Tabs_recovery.Group_commit.config ->
  ?checkpointing:int ->
  ?parallel_recovery:int ->
  ?instant_restart:bool ->
  ?comm_batching:Tabs_net.Comm_mgr.batching ->
  ?commit_protocol:Tabs_tm.Commit_protocol.t ->
  ?frames:int ->
  ?log_space_limit:int ->
  ?read_only_optimization:bool ->
  unit ->
  t

val id : t -> int

(** [env t] bundles the current incarnation's handles for building data
    servers and applications. Invalidated by {!crash}. *)
val env : t -> Server_lib.env

val tm : t -> Tabs_tm.Txn_mgr.t

val rm : t -> Tabs_recovery.Recovery_mgr.t

val cm : t -> Tabs_net.Comm_mgr.t

val ns : t -> Tabs_name.Name_server.t

val vm : t -> Tabs_accent.Vm.t

val rpc : t -> Rpc.registry

val log : t -> Tabs_wal.Log_manager.t

val disk : t -> Tabs_storage.Disk.t

val is_up : t -> bool

(** [crash t] — volatile state (page frames, log buffer, lock tables,
    transaction state, sessions) is lost; the disk and the stable log
    survive. Fibers bound to the node die at their next step. *)
val crash : t -> unit

(** [restart t ~reinstall ?after_recovery ()] rebuilds the node: fresh
    kernel and TABS processes over the surviving disk and stable log,
    then [reinstall] re-creates the node's data servers (registering
    their operation handlers) against the new {!env}, then crash
    recovery runs, then [after_recovery] fires with the summary —
    the place to re-take locks on in-doubt transactions' objects
    ({!Server_lib.relock_in_doubt}) {e before} in-doubt resolution
    starts — and finally the Transaction Manager begins resolving.
    Returns the Recovery Manager's summary. Must run inside a fiber
    (recovery performs I/O). *)
val restart :
  t ->
  reinstall:(Server_lib.env -> unit) ->
  ?after_recovery:(Tabs_recovery.Recovery_mgr.recovery_outcome -> unit) ->
  unit ->
  Tabs_recovery.Recovery_mgr.recovery_outcome

(** [checkpoint t] asks the Recovery Manager for a system checkpoint. *)
val checkpoint : t -> unit
