(** Sharded data servers: deploy one physical instance per shard of the
    cluster's topology, register the slices in the placement map and the
    directory, and route operations by key.

    A deployment under logical name [n] creates instances
    ["n.s0" .. "n.s<k-1>"], instance [i] on node [i] in disk segment
    [segment + i] (leave a topology's worth of segment room between
    deployments). Both keyspaces (int-array cells, accounts) are
    range-partitioned integers.

    Routing is a pure map lookup plus the ordinary {!Tabs_core.Rpc}
    call: an operation whose key lives on the calling node is one local
    Data Server Call (with one shard, exactly the seed's behaviour),
    anything else is an inter-node call, and a transaction that touched
    several shards falls into the existing tree two-phase commit. *)

(** Range-partitioned integer cells ({!Int_array_server} slices). *)
module Int_array : sig
  type t

  val deploy :
    Tabs_core.Cluster.t -> name:string -> keys:int -> ?segment:int -> unit -> t

  (** [reinstall t ~shard env] re-creates shard [shard]'s physical
      instance against a restarted node's fresh environment (same
      instance name, segment, and cell count as {!deploy} chose) and
      re-publishes the placement map into the node's new directory.
      For use from a {!Tabs_core.Node.restart} [reinstall] callback. *)
  val reinstall : t -> shard:int -> Tabs_core.Server_lib.env -> Int_array_server.t

  (** [instances t] lists [(shard, instance)] (for tests). *)
  val instances : t -> (int * Int_array_server.t) list

  (** [locate t key] exposes the routing decision (for generators that
      want to aim a transaction at its home shard). *)
  val locate : t -> int -> Tabs_core.Placement.location

  val get :
    t -> Tabs_core.Rpc.registry -> Tabs_wal.Tid.t ->
    ?access:[ `Random | `Sequential ] -> int -> int

  val set :
    t -> Tabs_core.Rpc.registry -> Tabs_wal.Tid.t ->
    ?access:[ `Random | `Sequential ] -> int -> int -> unit
end

(** Range-partitioned bank accounts ({!Account_server} slices).
    [transfer] routes each side to its home shard: both on one shard is
    the server's single multi-page operation record; across shards it
    becomes withdraw + deposit in the same transaction — atomicity now
    rests on distributed commit instead of a single record. *)
module Accounts : sig
  type t

  val deploy :
    Tabs_core.Cluster.t ->
    name:string -> accounts:int -> ?segment:int -> unit -> t

  val instances : t -> (int * Account_server.t) list

  val locate : t -> int -> Tabs_core.Placement.location

  val balance : t -> Tabs_core.Rpc.registry -> Tabs_wal.Tid.t -> int -> int

  val deposit :
    t -> Tabs_core.Rpc.registry -> Tabs_wal.Tid.t -> int -> int -> unit

  val transfer :
    t -> Tabs_core.Rpc.registry -> Tabs_wal.Tid.t ->
    from_:int -> to_:int -> int -> unit
end
