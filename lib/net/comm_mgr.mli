(** The Communication Manager — the only process with access to the
    network (Section 3.2.4).

    Implements the three forms of network communication the paper lists:

    - {e datagrams} for the distributed two-phase commit (unreliable,
      cheap, charged at Table 5-1's datagram cost; parallel sends to
      several children charge the paper's half-datagram increments);
    - {e reliable session communication} for remote procedure calls:
      at-most-once, ordered delivery of arbitrary messages, with
      retransmission, duplicate suppression, and permanent-failure
      detection that aids remote-crash discovery;
    - {e broadcasting} for name lookup by the Name Server.

    It also scans transaction identifiers included in messages and builds
    the local portion of the commit spanning tree: the node's parent,
    whether the transaction was initiated remotely, and the node's
    children (Section 3.2.4). A Communication Manager instance is
    volatile: create a fresh one when the node restarts.

    {2 Comm batching}

    With {!create}'s [batching] set, the Communication Manager batches
    its wire traffic (off by default, leaving the paper-faithful
    behaviour untouched):

    - {e piggybacked acks} — an outgoing frame to a peer carries the
      receiver's cumulative acknowledgement for the reverse session
      stream; standalone acks are delayed up to [ack_delay] so several
      deliveries share one acknowledgement;
    - {e datagram coalescing} — frames queued to the same peer within
      [flush_delay] (or until [max_frames]/[max_bytes]) travel as one
      multi-frame wire message charged a single Datagram primitive plus
      a small {!Tabs_sim.Cost_model.Coalesced_frame} increment per
      extra datagram-class frame. *)

type t

(** Trace events: one per session-window retransmission (with the
    attempt number, the number of frames resent this burst-capped round,
    and the backed-off [rto] that expired); one when a stream is
    declared permanently failed; and one per departing batched wire
    message. *)
type Tabs_sim.Trace.event +=
  | Session_retransmit of {
      node : int;
      peer : int;
      attempt : int;
      window : int;
      rto : int;
    }
  | Session_failure of { node : int; peer : int }
  | Comm_batch of {
      node : int;
      peer : int;
      frames : int;
      control : int;
      piggybacked_ack : bool;
    }

(** Comm-batching parameters, all in microseconds of virtual time /
    counts: [ack_delay] is how long a delivery acknowledgement may wait
    for an outgoing frame to ride; [flush_delay] is how long a queued
    frame may wait for companions; a batch departs early at [max_frames]
    frames or [max_bytes] nominal bytes. *)
type batching = {
  ack_delay : int;
  flush_delay : int;
  max_frames : int;
  max_bytes : int;
}

val default_batching : batching

(** [session_rto] is the base retransmission timeout. Each barren
    retransmission round doubles the timeout (exponential backoff) up to
    [8 * session_rto]; an acknowledgement that makes progress resets it
    to the base. After [session_retries] barren rounds the stream is
    declared permanently failed.
    [session_resend_burst] (default 8) caps how many unacked frames a
    single retransmission round puts back on the wire. [batching]
    enables the comm-batching layer; omitted means off. *)
val create :
  Network.t ->
  node:int ->
  ?session_rto:int ->
  ?session_retries:int ->
  ?session_resend_burst:int ->
  ?batching:batching ->
  unit ->
  t

(** [batching t] is the batching configuration, if enabled. *)
val batching : t -> batching option

(** [shutdown t] silences this incarnation (crash). *)
val shutdown : t -> unit

(** {2 Datagrams} *)

(** [send_datagram t ~dest payload] charges one datagram primitive and
    transmits (with batching on, the frame instead joins [dest]'s batch
    and the flush pays the coalesced cost). Must run inside a fiber. *)
val send_datagram : t -> dest:int -> Network.payload -> unit

(** [send_datagrams_parallel t ~dests payload] sends to several nodes at
    once: the first send is charged in full and each additional one at
    half cost, per the Table 5-3 accounting of parallel Prepare/Commit
    datagrams. With batching on, each destination's frame joins that
    peer's batch instead. *)
val send_datagrams_parallel : t -> dests:int list -> Network.payload -> unit

(** [add_datagram_handler t f] appends a receive handler; each handler
    pattern-matches the payloads it owns and ignores the rest (the
    Transaction Manager and the Name Server share the datagram
    channel). *)
val add_datagram_handler : t -> (src:int -> Network.payload -> unit) -> unit

(** {2 Sessions} *)

(** [session_send t ~dest ?tid payload] queues [payload] for at-most-once
    ordered delivery; [tid] (if any) is scanned for spanning-tree
    maintenance on both ends. Transport cost is part of the remote
    procedure call primitive charged by the RPC layer, so no primitive is
    charged here. Safe outside a fiber. *)
val session_send : t -> dest:int -> ?tid:Tabs_wal.Tid.t -> Network.payload -> unit

val set_session_handler : t -> (src:int -> Network.payload -> unit) -> unit

(** [set_failure_handler t f] — [f ~peer] runs (in a fiber) when session
    retransmission to [peer] exhausts its retries: the Communication
    Manager "detects permanent communication failures and, thereby, aids
    in the detection of remote node crashes". *)
val set_failure_handler : t -> (peer:int -> unit) -> unit

(** {2 Broadcast} *)

val broadcast : t -> Network.payload -> unit

val set_broadcast_handler : t -> (src:int -> Network.payload -> unit) -> unit

(** {2 Commit spanning tree} *)

(** [parent_of t tid] is the node that first invoked an operation here on
    behalf of [tid]'s top-level transaction, if the transaction arrived
    from remote. The node named in the tid (where the transaction began)
    is the root and never has a parent. *)
val parent_of : t -> Tabs_wal.Tid.t -> int option

(** [children_of t tid] lists nodes this node first spread the
    transaction to. *)
val children_of : t -> Tabs_wal.Tid.t -> int list

(** [involved_remotely t tid] — true once any inter-node message has
    been sent or received on behalf of the transaction. *)
val involved_remotely : t -> Tabs_wal.Tid.t -> bool

(** [set_remote_involvement_handler t f] — [f tid] runs the first time
    an inter-node message is sent or received for [tid]: the message the
    Communication Manager sends the Transaction Manager (Section 3.2.3). *)
val set_remote_involvement_handler : t -> (Tabs_wal.Tid.t -> unit) -> unit

(** [forget_txn t tid] drops spanning-tree state after commit/abort. *)
val forget_txn : t -> Tabs_wal.Tid.t -> unit
