(** Counters of primitive-operation executions.

    The benchmark harness opens a metrics window around a phase of a
    transaction (pre-commit or commit) and reads back the per-primitive
    counts, reproducing the counting methodology of Tables 5-2 and 5-3. *)

type t

(** Wire-level message counters, kept by the Communication Managers:
    every network transmission a CM pays for is one wire message
    carrying one or more frames (more than one only under the
    comm-batching layer's datagram coalescing). The ack counters
    attribute the messages piggybacking and delayed acks removed, and
    {!msgs.duplicate_reacks} counts re-acks provoked by duplicate
    deliveries. Mutate only from {!Tabs_net.Comm_mgr}. *)
type msgs = {
  mutable wire_messages : int;
  mutable carried_frames : int;
  mutable piggybacked_acks : int;
  mutable delayed_acks : int;
  mutable ack_deliveries_covered : int;
  mutable duplicate_reacks : int;
}

(** Commit-protocol pathology counters, kept by the Transaction
    Managers: {!tm.resolutions_abandoned} counts in-doubt participants
    (and orphans) that exhausted their status-query attempts and remain
    blocked with write locks held. Mutate only from {!Tabs_tm.Txn_mgr}. *)
type tm = { mutable resolutions_abandoned : int }

(** Per-node instant-restart progress counters, kept by the Recovery
    Managers: parked page replays attributed to who drove them — on
    demand at first touch, or by the background trickle. An eager
    restart parks nothing and counts nothing here. [pending_pages] is
    a gauge: per-page chains still parked for lazy replay. Mutate only
    from [Tabs_recovery.Recovery_mgr]. *)
type recovery = {
  mutable ondemand_pages : int;
  mutable trickle_pages : int;
  mutable pending_pages : int;
}

val create : unit -> t

(** [msgs t] is the live message-counter block (shared mutable state). *)
val msgs : t -> msgs

(** [tm t] is the live Transaction Manager counter block (shared mutable
    state). *)
val tm : t -> tm

(** [recovery t ~node] is [node]'s live recovery counter block, created
    zeroed on first access (shared mutable state). *)
val recovery : t -> node:int -> recovery

(** [record t p] counts one execution of primitive [p]. *)
val record : t -> Cost_model.primitive -> unit

(** [record_weighted t p ~num ~den] counts a fractional execution —
    num/den of one — reproducing the paper's accounting of overlapped
    work, e.g. the "one-half datagram time" charged for a second
    parallel Prepare datagram in the three-node commit rows of
    Table 5-3. Weights accumulate in units of 1/1000. *)
val record_weighted : t -> Cost_model.primitive -> num:int -> den:int -> unit

(** [record_elided t p] counts an execution of [p] that an
    {!Profile.Integrated} node turned into a direct procedure call:
    the hop is attributed here instead of in the charged counters, so a
    run can report both what it paid for and what the architecture
    removed. *)
val record_elided : t -> Cost_model.primitive -> unit

(** [count t p] is the number of recorded executions of [p], rounded
    down when fractional executions were recorded. *)
val count : t -> Cost_model.primitive -> int

(** [weight t p] is the accumulated execution weight of [p] — the
    fractional count — as a float. *)
val weight : t -> Cost_model.primitive -> float

(** [elided_weight t p] — executions of [p] elided by Integrated-profile
    nodes (zero on Classic nodes), as a float. *)
val elided_weight : t -> Cost_model.primitive -> float

(** {2 Per-node rollup}

    The charged counters are additionally rolled up by the node of the
    fiber that paid them (when known), so scale-out benches can report
    per-shard load without perturbing the engine-global accounting.
    Attribution happens in {!Engine.charge}/{!Engine.charge_fraction};
    nothing on the seed paths reads these counters. *)

(** [record_node t ~node p ~num ~den] counts num/den of one execution of
    [p] against [node]'s rollup (the global counters are unaffected —
    callers record those separately). *)
val record_node : t -> node:int -> Cost_model.primitive -> num:int -> den:int -> unit

(** [node_weight t ~node p] is [node]'s accumulated execution weight of
    [p]; 0 for nodes never charged. *)
val node_weight : t -> node:int -> Cost_model.primitive -> float

(** [nodes_tracked t] lists node ids with any attributed executions. *)
val nodes_tracked : t -> int list

(** {2 Windows}

    A snapshot or diff holds per-primitive counts only: the charged and
    elided counters that {!count}, {!weight}, {!elided_weight} and
    {!weighted_cost} read. Its message, TM, recovery and per-node blocks
    are zero; read those live. *)

(** [snapshot t] is an independent copy of the current per-primitive
    counts. *)
val snapshot : t -> t

(** [diff ~later ~earlier] is the per-primitive difference of counts. *)
val diff : later:t -> earlier:t -> t

(** [weighted_cost t model] is the sum over primitives of
    count x latency, in microseconds — the paper's "System Time Predicted
    by Primitives". *)
val weighted_cost : t -> Cost_model.t -> int
