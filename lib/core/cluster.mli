(** A network of TABS nodes under one simulation engine — the
    "collection of networked Perq workstations" the prototype ran on —
    plus the cluster's {!Topology} (one shard per node) and {!Placement}
    map (key-range ownership of sharded keyspaces).

    The seed's "list of nodes" view is preserved: every accessor below
    that predates sharding behaves exactly as before, and the topology
    changes nothing observable. *)

type t

(** [create ~nodes ()] builds [nodes] nodes (ids 0..nodes-1) on a
    lossless network. [?profile] applies the same architecture profile
    and [?group_commit] the same force-batching configuration (see
    {!Node.create}) to every node, as does [?checkpointing] for the
    background checkpoint daemon, [?parallel_recovery] for parallel
    restart recovery, [?instant_restart] for
    serve-while-recovering restart with on-demand per-page redo, and
    [?comm_batching] for the Communication Managers' comm-batching
    layer. Shard [i] of the topology lives on node [i]. *)
val create :
  ?cost_model:Tabs_sim.Cost_model.t ->
  ?seed:int ->
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
  nodes:int ->
  unit ->
  t

val engine : t -> Tabs_sim.Engine.t

val network : t -> Tabs_net.Network.t

(** [node t id] is O(1) (array-backed). Raises [Invalid_argument] on an
    unknown id. *)
val node : t -> int -> Node.t

val nodes : t -> Node.t list

val node_count : t -> int

(** The cluster's shard layout: one shard per node. *)
val topology : t -> Topology.t

(** The cluster's placement map. Keyspaces are added by the sharded
    server layer (e.g. {!Placement.partition}); a freshly created
    cluster has none. *)
val placement : t -> Placement.t

(** [shard_node t s] is the node hosting shard [s]. *)
val shard_node : t -> int -> Node.t

(** [run t] processes simulation events until quiescent. *)
val run : t -> unit

(** [run_until t ~time] bounds the run — needed when blocking behaviour
    (e.g. an in-doubt participant) would otherwise keep polling. *)
val run_until : t -> time:int -> unit

(** [run_fiber t ~node f] spawns [f] as an application fiber on [node],
    drives the simulation to quiescence, and returns [f]'s result.
    Raises {!Errors.Fiber_killed} if the fiber was killed by a node
    crash, or {!Errors.Fiber_stalled} (saying whether it never ran or
    deadlocked on a wait queue) if quiescence was reached with the fiber
    unfinished. *)
val run_fiber : t -> node:int -> (unit -> 'a) -> 'a

(** [spawn t ~node f] spawns without running the engine (for composing
    concurrent scenarios before a single {!run}). *)
val spawn : t -> node:int -> (unit -> unit) -> unit
