type t = { shards : int } (* shard [i] lives on node [i] *)

let one_per_node ~shards =
  if shards <= 0 then invalid_arg "Topology.one_per_node: shards <= 0";
  { shards }

let shards t = t.shards

let node_of_shard t s =
  if s < 0 || s >= t.shards then
    invalid_arg "Topology.node_of_shard: no such shard";
  s

let shard_name _t s = Printf.sprintf "s%d" s
