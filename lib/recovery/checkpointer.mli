(** Background checkpoint and log-reclamation daemon.

    One fiber per node, the same shape as {!Group_commit}: it parks on a
    wait queue so the simulation can quiesce, and forward log traffic
    pokes it back awake once per [interval] of virtual time. Each cycle
    it

    + trickle-writes up to {!trickle} dirty pages, oldest recovery LSN
      first (the pages holding the truncation floor down the longest);
    + appends a fuzzy checkpoint through the Recovery Manager, unforced:
      the next commit force makes it stable. No flushing beyond the trickle;
    + truncates the log below the newest of its checkpoints already
      stable, keeping that checkpoint's anchor floor, every dirty page's
      recovery LSN and every live chain.

    This replaces the flush-the-world path of
    {!Recovery_mgr.maybe_reclaim} on nodes that enable it (see
    [?checkpointing] on {!Recovery_mgr.create}): foreground transactions
    never pay for a [Vm.flush_all] again, and restart analysis is
    bounded by the checkpoint distance instead of the log length. Off by
    default — the Section 5 measurements are unperturbed. *)

type t

(** The default checkpoint interval: 500 ms of virtual time. *)
val default : int

(** Dirty pages written back per cycle (8). *)
val trickle : int

(** Trace events: one trickle write-back burst, and one log truncation
    with how many records it reclaimed. *)
type Tabs_sim.Trace.event +=
  | Rm_writeback of { node : int; pages : int; oldest_rec_lsn : int }
  | Rm_reclaimed of {
      node : int;
      keep_from : Tabs_wal.Record.lsn;
      records : int;
    }

(** [create engine ~node ~vm ~checkpoint_and_truncate ~gate ~interval]
    spawns the daemon fiber; [interval] is the minimum virtual
    microseconds between cycles. [checkpoint_and_truncate] is the Recovery
    Manager's fuzzy checkpoint followed by its log truncation (passed as
    a closure — the Recovery Manager owns the daemon); it returns the
    truncation point and the number of records it reclaimed. [gate] is
    consulted before each cycle; a cycle whose gate reads false is
    skipped entirely. Restart recovery holds the gate closed: until it
    restores the log's chain table, a cycle would see no live chains,
    truncate in-doubt undo records, and write a checkpoint missing the
    prepared set. *)
val create :
  Tabs_sim.Engine.t ->
  node:int ->
  vm:Tabs_accent.Vm.t ->
  checkpoint_and_truncate:(unit -> Tabs_wal.Record.lsn * int) ->
  gate:(unit -> bool) ->
  interval:int ->
  t

(** [poke t] wakes the daemon if at least [interval] has passed since
    its last cycle — called from forward processing, costs nothing. *)
val poke : t -> unit

(** [request t] forces a cycle regardless of the interval — the
    log-space-limit path. Never blocks the caller. *)
val request : t -> unit

(** Cycles completed, pages trickled out, and log records reclaimed so
    far — statistics for tests and benchmarks. *)
val cycles : t -> int

val pages_written : t -> int

val reclaimed : t -> int
