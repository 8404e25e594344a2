open Tabs_sim
open Tabs_net

type t = {
  engine : Engine.t;
  net : Network.t;
  node_arr : Node.t array;
  topology : Topology.t;
  placement : Placement.t;
}

let create ?cost_model ?(seed = 1) ?profile ?group_commit ?checkpointing
    ?parallel_recovery ?instant_restart ?comm_batching ?commit_protocol
    ?frames ?log_space_limit ?read_only_optimization ~nodes () =
  let topology = Topology.one_per_node ~shards:nodes in
  let engine = Engine.create ?cost_model () in
  let net = Network.create engine ~seed in
  let node_arr =
    Array.init nodes (fun id ->
        Node.create engine net ~id ?profile ?group_commit ?checkpointing
          ?parallel_recovery ?instant_restart ?comm_batching ?commit_protocol
          ?frames ?log_space_limit ?read_only_optimization ())
  in
  { engine; net; node_arr; topology; placement = Placement.create topology }

let engine t = t.engine

let network t = t.net

let node t id =
  if id < 0 || id >= Array.length t.node_arr then
    invalid_arg (Printf.sprintf "Cluster.node: no node %d" id);
  t.node_arr.(id)

let nodes t = Array.to_list t.node_arr

let node_count t = Array.length t.node_arr

let topology t = t.topology

let placement t = t.placement

let shard_node t shard = node t (Topology.node_of_shard t.topology shard)

let run t = ignore (Engine.run t.engine)

let run_until t ~time = Engine.run_until t.engine ~time

let spawn t ~node f = ignore (Engine.spawn t.engine ~node f)

let run_fiber t ~node f =
  let result = ref None in
  let started = ref false in
  let epoch0 = Engine.node_epoch t.engine node in
  ignore
    (Engine.spawn t.engine ~node (fun () ->
         started := true;
         result := Some (f ())));
  ignore (Engine.run t.engine);
  match !result with
  | Some v -> v
  | None ->
      if Engine.node_epoch t.engine node <> epoch0 then
        raise (Errors.Fiber_killed { node })
      else if not !started then
        raise
          (Errors.Fiber_stalled
             { node; reason = "never scheduled (spawned on a crashed node?)" })
      else
        raise
          (Errors.Fiber_stalled
             {
               node;
               reason =
                 "suspended on a wait queue at quiescence (deadlocked \
                  scenario: nothing left to signal it)";
             })
