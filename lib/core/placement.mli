(** Data placement: which shard — and therefore which node and which
    physical server instance — owns each key of a sharded keyspace.

    A {e keyspace} is a logical server name (e.g. ["acct"]) whose
    integer keys are split into contiguous ranges, one per shard of the
    topology. Each shard's slice is served by a physical instance named
    ["<logical>.s<shard>"], created on the shard's hosting node.

    The map is pure data: building or querying it charges no simulated
    primitive, so a 1-shard placement is byte-identical to the unsharded
    seed path. Shard slices are also advertised through the Name Server
    ({!publish}), so nodes that never built the map can resolve owners
    with a placement-aware directory lookup. *)

type t

(** Everything a router needs to reach one key: the owning shard, its
    hosting node, the physical instance name, and [base], the first key
    of the owning range ([key - base] is the instance-local key). *)
type location = { shard : int; node : int; instance : string; base : int }

val create : Topology.t -> t

(** [partition t ~server ~keys] splits integer keys [0..keys-1] of
    keyspace [server] into contiguous ranges, one per shard, as evenly
    as integer division allows (first ranges get the remainder).
    Raises [Invalid_argument] if [server] is already placed. *)
val partition : t -> server:string -> keys:int -> unit

(** [instance_name t ~server ~shard] is the physical server name of one
    shard's slice, ["<server>.s<shard>"]. *)
val instance_name : t -> server:string -> shard:int -> string

(** [locate t ~server ~key] routes a key to its shard's location, built
    once when the keyspace was placed: the lookup allocates nothing.
    Raises [Invalid_argument] on an unplaced keyspace or out-of-range
    key. *)
val locate : t -> server:string -> key:int -> location

val shard_of : t -> server:string -> key:int -> int

(** [ranges t ~server] lists [(shard, lo, hi)] with [lo <= k < hi], in
    shard order (for tests and reporting; empty ranges included). *)
val ranges : t -> server:string -> (int * int * int) list

(** [publish t ns ~server] registers every shard slice of [server] in
    [ns] under the logical name, with the owned range encoded in the
    entry (see {!Tabs_name.Name_server.register_range}). Call it on each
    shard's hosting node's name server for instances living there, or on
    any name server to advertise the whole map. *)
val publish :
  t -> Tabs_name.Name_server.t -> server:string -> only_node:int option -> unit

(** [location_of_entry e] recovers a routing location from a
    placement-aware directory entry: the instance and node come from the
    binding, the base from its encoded range, the shard from the
    instance-name suffix. [None] for entries without a range. *)
val location_of_entry : Tabs_name.Name_server.entry -> location option
