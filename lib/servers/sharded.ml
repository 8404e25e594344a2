open Tabs_core

(* Instances are created shard-by-shard on each shard's hosting node;
   the slice is registered in the cluster's placement map once and in
   the hosting node's directory (with its key range), so remote nodes
   can discover ownership with a placement-aware lookup. *)

let deploy_instances cluster ~name create_instance =
  let topo = Cluster.topology cluster in
  List.init (Topology.shards topo) (fun shard ->
      let node = Cluster.shard_node cluster shard in
      let instance =
        Placement.instance_name (Cluster.placement cluster) ~server:name ~shard
      in
      (shard, create_instance ~shard ~node ~instance))

(* [slice placement ~server ~shard] is the [lo, hi) key range of a
   range-partitioned server's shard. *)
let slice placement ~server ~shard =
  match
    List.find_opt (fun (s, _, _) -> s = shard) (Placement.ranges placement ~server)
  with
  | Some (_, lo, hi) -> (lo, hi)
  | None -> invalid_arg "Sharded: unknown shard"

module Int_array = struct
  type t = {
    placement : Placement.t;
    logical : string;
    segment : int;
    instances : (int * Int_array_server.t) list;
  }

  let install t ~shard (env : Server_lib.env) =
    let lo, hi = slice t.placement ~server:t.logical ~shard in
    Placement.publish t.placement env.ns ~server:t.logical
      ~only_node:(Some env.node);
    Int_array_server.create env
      ~name:(Placement.instance_name t.placement ~server:t.logical ~shard)
      ~segment:(t.segment + shard)
      ~cells:(max 1 (hi - lo))
      ()

  let deploy cluster ~name ~keys ?(segment = 1) () =
    let placement = Cluster.placement cluster in
    Placement.partition placement ~server:name ~keys;
    let t = { placement; logical = name; segment; instances = [] } in
    let instances =
      deploy_instances cluster ~name (fun ~shard ~node ~instance:_ ->
          install t ~shard (Node.env node))
    in
    { t with instances }

  let reinstall = install

  let instances t = t.instances

  let locate t key = Placement.locate t.placement ~server:t.logical ~key

  let get t rpc tid ?access key =
    let loc = locate t key in
    Int_array_server.call_get rpc ~dest:loc.node ~server:loc.instance tid
      ?access (key - loc.base)

  let set t rpc tid ?access key v =
    let loc = locate t key in
    Int_array_server.call_set rpc ~dest:loc.node ~server:loc.instance tid
      ?access (key - loc.base) v
end

module Accounts = struct
  type t = {
    placement : Placement.t;
    logical : string;
    instances : (int * Account_server.t) list;
  }

  let deploy cluster ~name ~accounts ?(segment = 1) () =
    let placement = Cluster.placement cluster in
    Placement.partition placement ~server:name ~keys:accounts;
    let instances =
      deploy_instances cluster ~name (fun ~shard ~node ~instance ->
          let lo, hi = slice placement ~server:name ~shard in
          Placement.publish placement (Node.ns node) ~server:name
            ~only_node:(Some (Node.id node));
          Account_server.create (Node.env node) ~name:instance
            ~segment:(segment + shard)
            ~accounts:(max 1 (hi - lo))
            ())
    in
    { placement; logical = name; instances }

  let instances t = t.instances

  let locate t key = Placement.locate t.placement ~server:t.logical ~key

  let balance t rpc tid i =
    let loc = locate t i in
    Account_server.call_balance rpc ~dest:loc.node ~server:loc.instance tid
      (i - loc.base)

  let deposit t rpc tid i amount =
    let loc = locate t i in
    Account_server.call_deposit rpc ~dest:loc.node ~server:loc.instance tid
      (i - loc.base) amount

  let transfer t rpc tid ~from_ ~to_ amount =
    let from_loc = locate t from_ and to_loc = locate t to_ in
    if from_loc.shard = to_loc.shard then
      Account_server.call_transfer rpc ~dest:from_loc.node
        ~server:from_loc.instance tid ~from_:(from_ - from_loc.base)
        ~to_:(to_ - to_loc.base) amount
    else begin
      (* cross-shard: debit (with the funds check) where the source
         lives, credit where the destination lives; the enclosing
         transaction's tree 2PC makes the pair atomic *)
      Account_server.call_withdraw rpc ~dest:from_loc.node
        ~server:from_loc.instance tid (from_ - from_loc.base) amount;
      Account_server.call_deposit rpc ~dest:to_loc.node
        ~server:to_loc.instance tid (to_ - to_loc.base) amount
    end
end
