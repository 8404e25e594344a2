(** The redo graph: the one replay engine behind every restart.

    Crash recovery's replay work is mostly independent: updates to
    different pages never conflict, and updates to the same page are
    ordered by their position in the log. Every record names the pages
    it writes and its redo argument is self-contained, so these per-page
    chains are the only ordering replay needs.

    [build] turns an analysis scan's record array into one graph with
    three phases, each the paper's serial pass made a partial order:

    - {e operation redo} (forward): per-page chains of operation records;
    - {e value} (newest-first): per-page chains among value records.
      Value-logged objects fit one page, so two records for the same
      object are always chained;
    - {e loser operation undo} (newest-first): per-page chains among the
      operation records of losers, built like the value phase.

    Every member's priority is its position in the serial pass, and
    every edge runs from lower to higher priority, so draining a phase
    in priority order at one fiber {e is} the serial pass, record for
    record. The graph also owns the per-page member index and the
    applied flags, and offers the two ways to drain it that a restart
    policy schedules:

    - a whole phase — inline in the calling fiber ({!drain}) or over N
      simulator fibers ({!drain_over}), where records on different
      chains overlap in virtual time and replay finishes in roughly
      critical-path rather than total-work time;
    - one page's predecessor closure ({!drain_page}), for redo on first
      touch.

    A record is applied at most once whichever way reaches it. *)

type config = { fibers : int }

val default : config

type stats = {
  op_records : int;  (** operation records scheduled in the redo phase *)
  value_records : int;  (** value records scheduled in the backward phase *)
  chain_edges : int;  (** same-page ordering edges across both redo phases *)
  critical_path : int;
      (** longest chain of ordering edges, operation and value phases
          summed — the lower bound, in records, on parallel replay *)
  width : int;
      (** largest antichain level: how many records could be in flight
          at once given unlimited fibers *)
}

type phase =
  | Op_redo  (** operation records, forward *)
  | Value  (** value records, newest-first *)
  | Op_undo  (** losers' operation records, newest-first *)

type t

(** [build ~loser records] constructs the three phase graphs from an
    analysis scan's [(lsn, record)] array; [loser tid] selects whose
    operation records the undo phase rolls back. Pure bookkeeping:
    charges nothing. *)
val build :
  loser:(Tabs_wal.Tid.t -> bool) ->
  (Tabs_wal.Record.lsn * Tabs_wal.Record.t) array ->
  t

(** The shape of the two redo phases; loser undo always drains at one
    fiber and is not counted. *)
val stats : t -> stats

(** {2 Whole phases} *)

(** [drain g phase ~apply] applies every not-yet-applied record of
    [phase] in priority order, inline in the calling fiber. [apply i] is
    called with the index into the records array passed to {!build}. *)
val drain : t -> phase -> apply:(int -> unit) -> unit

(** [drain_over g phase engine ~node ~fibers ~apply] drains [phase] over
    [fibers] worker fibers spawned on [node]: [apply i] runs once record
    [i]'s predecessors have all been applied, lowest priority first.
    Returns when the whole phase has been applied. At one fiber (or
    fewer) it is {!drain}. Must run inside a fiber. *)
val drain_over :
  t ->
  phase ->
  Tabs_sim.Engine.t ->
  node:int ->
  fibers:int ->
  apply:(int -> unit) ->
  unit

(** {2 One page}

    A page is {e pending} while some record of any phase touching it is
    unapplied. *)

(** [drain_page g pid ~apply] applies the predecessor closure of
    [pid]'s records: operation redo forward, then value newest-first,
    then — after repeating history on every page they touch — the loser
    undos newest-first. Returns the number of records applied. *)
val drain_page :
  t -> Tabs_storage.Disk.page_id -> apply:(phase -> int -> unit) -> int

(** [settle g] removes from the pending set every page whose records
    have all been applied — by its own closure or a neighbour's — and
    returns how many it removed. *)
val settle : t -> int

val pending_count : t -> int

val is_pending : t -> Tabs_storage.Disk.page_id -> bool

(** [pending g] lists every pending page with the LSN of the oldest
    record touching it — the recovery LSN a checkpoint must report for
    the page, and the log floor its records pin. *)
val pending : t -> (Tabs_wal.Record.lsn * Tabs_storage.Disk.page_id) list
