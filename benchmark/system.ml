(* The system under test: a 4-node, 4-shard cluster with every opt-in
   feature at its module default, and the workload's data set deployed
   on it. This file holds the benchmark's only call to
   [Cluster.create]. *)

open Tabs_sim
open Tabs_core
open Tabs_servers

type data =
  | Cells of Sharded.Int_array.t * Int_array_server.t array
  | Accounts of Sharded.Accounts.t * Account_server.t array
      (** the arrays hold each shard's current instance: a restart
          replaces it *)

(* Statistics kept by volatile objects: the page pool, the force
   batcher, the checkpoint daemon, the Transaction Manager and the lock
   manager. They die with their incarnation, so [crash] banks them. *)
type totals = {
  faults : int;
  batches : int;
  coalesced : int;
  cycles : int;
  ck_pages : int;
  reclaimed : int;
  distributed : int;
  lock_timeouts : int;
}

let add a b =
  {
    faults = a.faults + b.faults;
    batches = a.batches + b.batches;
    coalesced = a.coalesced + b.coalesced;
    cycles = a.cycles + b.cycles;
    ck_pages = a.ck_pages + b.ck_pages;
    reclaimed = a.reclaimed + b.reclaimed;
    distributed = a.distributed + b.distributed;
    lock_timeouts = a.lock_timeouts + b.lock_timeouts;
  }

type t = { cluster : Cluster.t; data : data; mutable banked : totals }

let create_cluster ~seed =
  Cluster.create ~cost_model:Cost_model.measured ~seed ~profile:Profile.Classic
    ~group_commit:Tabs_recovery.Group_commit.default
    ~checkpointing:Tabs_recovery.Checkpointer.default
    ~parallel_recovery:Tabs_recovery.Parallel_redo.default ~instant_restart:true
    ~comm_batching:Tabs_net.Comm_mgr.default_batching
    ~commit_protocol:Tabs_tm.Commit_protocol.Two_phase ~frames:1500
    ~nodes:Workload.shards ()

let cluster t = t.cluster

let engine t = Cluster.engine t.cluster

let node t shard = Cluster.shard_node t.cluster shard

let instances l = Array.of_list (List.map snd l)

(* Every account starts at [Workload.initial_balance], deposited by
   one-page transactions on each shard's own node. *)
let preload cluster accts =
  let per_txn = 64 in
  Array.iteri
    (fun shard inst ->
      let node = Cluster.shard_node cluster shard in
      Cluster.spawn cluster ~node:(Node.id node) (fun () ->
          let n = Account_server.accounts inst in
          let rec batch lo =
            if lo < n then begin
              Txn_lib.execute_transaction (Node.tm node) (fun tid ->
                  for i = lo to min n (lo + per_txn) - 1 do
                    Account_server.deposit inst tid i Workload.initial_balance
                  done);
              batch (lo + per_txn)
            end
          in
          batch 0))
    accts;
  Cluster.run cluster

let setup (w : Workload.t) ~seed =
  let cluster = create_cluster ~seed in
  let name = Workload.keyspace w in
  let data =
    if Workload.accounts w then begin
      let a = Sharded.Accounts.deploy cluster ~name ~accounts:w.keys () in
      let inst = instances (Sharded.Accounts.instances a) in
      preload cluster inst;
      Accounts (a, inst)
    end
    else begin
      let a = Sharded.Int_array.deploy cluster ~name ~keys:w.keys () in
      Cells (a, instances (Sharded.Int_array.instances a))
    end
  in
  {
    cluster;
    data;
    banked =
      {
        faults = 0;
        batches = 0;
        coalesced = 0;
        cycles = 0;
        ck_pages = 0;
        reclaimed = 0;
        distributed = 0;
        lock_timeouts = 0;
      };
  }

let server t shard =
  match t.data with
  | Cells (_, inst) -> Int_array_server.server inst.(shard)
  | Accounts (_, inst) -> Account_server.server inst.(shard)

let lock_manager t shard = Server_lib.lock_manager (server t shard)

(* the statistics of [shard]'s live incarnation *)
let incarnation t shard =
  let n = node t shard in
  let rm = Node.rm n in
  let gc f = match Tabs_recovery.Recovery_mgr.group_commit rm with Some g -> f g | None -> 0 in
  let ck f = match Tabs_recovery.Recovery_mgr.checkpointer rm with Some c -> f c | None -> 0 in
  {
    faults = Tabs_accent.Vm.faults (Node.vm n);
    batches = gc Tabs_recovery.Group_commit.batches;
    coalesced = gc Tabs_recovery.Group_commit.coalesced;
    cycles = ck Tabs_recovery.Checkpointer.cycles;
    ck_pages = ck Tabs_recovery.Checkpointer.pages_written;
    reclaimed = ck Tabs_recovery.Checkpointer.reclaimed;
    distributed = Tabs_tm.Txn_mgr.distributed_commits (Node.tm n);
    lock_timeouts = Tabs_lock.Lock_manager.timeouts (lock_manager t shard);
  }

(* totals over every incarnation so far *)
let totals t =
  List.fold_left (fun acc s -> add acc (incarnation t s)) t.banked
    (List.init Workload.shards Fun.id)

let crash t shard =
  t.banked <- add t.banked (incarnation t shard);
  Node.crash (node t shard)

(* Rebuild a crashed shard's node, re-creating its server instance the
   way [Sharded] deployed it, and re-lock what in-doubt transactions
   wrote before resolution starts. Must run inside a fiber; returns
   once the node is open. *)
let restart t shard =
  let reinstall (env : Server_lib.env) =
    match t.data with
    | Cells (a, inst) -> inst.(shard) <- Sharded.Int_array.reinstall a ~shard env
    | Accounts (_, inst) ->
        let placement = Cluster.placement t.cluster and name = "acct" in
        let lo, hi =
          match
            List.find_opt (fun (s, _, _) -> s = shard) (Placement.ranges placement ~server:name)
          with
          | Some (_, lo, hi) -> (lo, hi)
          | None -> invalid_arg "System.restart: unknown shard"
        in
        Placement.publish placement env.ns ~server:name ~only_node:(Some env.node);
        inst.(shard) <-
          Account_server.create env
            ~name:(Placement.instance_name placement ~server:name ~shard)
            ~segment:(1 + shard) ~accounts:(hi - lo) ()
  in
  Node.restart (node t shard) ~reinstall
    ~after_recovery:(fun outcome ->
      Server_lib.relock_in_doubt (server t shard)
        outcome.Tabs_recovery.Recovery_mgr.written_objects)
    ()

(* One operation of a transaction, routed through [Sharded] from the
   gateway's RPC registry. *)
let apply t rpc tid ~stamp (op : Workload.op) =
  match (t.data, op) with
  | Cells (a, _), Read k -> ignore (Sharded.Int_array.get a rpc tid k)
  | Cells (a, _), Write k -> Sharded.Int_array.set a rpc tid k stamp
  | Accounts (a, _), Transfer { from_; to_ } ->
      Sharded.Accounts.transfer a rpc tid ~from_ ~to_ 1
  | _ -> invalid_arg "System.apply: operation does not fit the data set"

(* [read_all t shard keys] reads [keys] (global, all on [shard]) in one
   transaction on the shard's own node, through the instance's direct
   API. Must run inside a fiber on that node. *)
let read_all t shard keys =
  Txn_lib.execute_transaction (Node.tm (node t shard)) (fun tid ->
      List.map
        (fun k ->
          match t.data with
          | Cells (a, inst) ->
              (k, Int_array_server.get inst.(shard) tid (k - (Sharded.Int_array.locate a k).base))
          | Accounts (a, inst) ->
              (k, Account_server.balance inst.(shard) tid (k - (Sharded.Accounts.locate a k).base)))
        keys)
