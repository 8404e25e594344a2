(** Cluster topology: the named shards of a TABS cluster and the nodes
    that host them.

    The seed treated a cluster as a bare list of nodes; scale-out work
    needs the extra level of indirection — a {e shard} is a named unit
    of data placement, and the topology says which node hosts it. There
    is one shard per node: shard [i] lives on node [i], which reproduces
    the seed behaviour exactly. *)

type t

(** [one_per_node ~shards] is the layout: [shards] shards, shard [i]
    hosted on node [i]. *)
val one_per_node : shards:int -> t

(** Number of shards. *)
val shards : t -> int

(** [node_of_shard t s] is the node hosting shard [s]. *)
val node_of_shard : t -> int -> int

(** [shard_name t s] is the conventional display name ["s<id>"], used
    as the instance-name suffix by the placement layer. *)
val shard_name : t -> int -> string
