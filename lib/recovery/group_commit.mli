(** Group commit: batched log forces across concurrent transactions.

    Without it every committing transaction pays its own
    stable-storage round, so a node's commit throughput saturates at
    roughly [1/force-time]. The batcher amortizes that round: instead
    of calling {!Tabs_wal.Log_manager.force} directly, committing
    fibers enqueue on a per-node daemon fiber that coalesces every
    force request arriving within {!window} of virtual time — or up
    to {!max_batch} requests — into {e one} log force (one
    large contiguous message plus one stable-storage write per log
    page), then wakes every waiter whose LSN the force covered.

    The prepare-record force of a 2PC subordinate and the
    commit-record force of a coordinator ride the same batcher, so
    concurrent distributed and local commits share rounds too.

    Disabled by default everywhere: the Section 5 no-load latency
    tables force once per commit, exactly as the paper measured. *)

(** Group commit is on or off; {!default} is its one setting. *)
type config

val default : config

(** Microseconds of virtual time a batch stays open after its first
    request, trading commit latency for batching (5 ms). *)
val window : int

(** Force requests that close a batch early, bounding the latency a
    stampede can add (64). *)
val max_batch : int

(** One batched force: how many requests it coalesced, the LSN it
    forced through, and how many waiting fibers it woke. *)
type Tabs_sim.Trace.event +=
  | Group_commit of {
      node : int;
      batch : int;
      upto : Tabs_wal.Record.lsn;
      woken : int;
    }

type t

(** [create engine ~node ~log] starts the batcher's daemon fiber on
    [node]. The fiber dies with the node; a restart builds a fresh
    batcher (buffered log records did not survive anyway). *)
val create : Tabs_sim.Engine.t -> node:int -> log:Tabs_wal.Log_manager.t -> t

(** [force_through t ~upto] joins the current batch (opening one if
    needed) and suspends the calling fiber until a force covering
    [upto] has completed. Returns immediately if [upto] is already
    stable. Must run inside a fiber. *)
val force_through : t -> upto:Tabs_wal.Record.lsn -> unit

(** Batches forced so far (statistics). *)
val batches : t -> int

(** Total force requests coalesced into those batches. *)
val coalesced : t -> int
