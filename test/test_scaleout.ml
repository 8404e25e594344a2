(* Sharded scale-out: topology and placement units, placement-aware
   directory lookups, key-range routing (local vs. distributed commit),
   seed-identity guards for the 1-shard topology, Cluster.run_fiber's
   typed failure modes, and a convergence property for cross-shard
   transactions with every optimization on over a lossy network. *)

open Tabs_sim
open Tabs_net
open Tabs_core
open Tabs_servers
open Tabs_obs

let quick name f = Alcotest.test_case name `Quick f

(* topology ---------------------------------------------------------------- *)

let test_topology_units () =
  let topo = Topology.one_per_node ~shards:4 in
  Alcotest.(check int) "shards" 4 (Topology.shards topo);
  Alcotest.(check int) "shard 2 on node 2" 2 (Topology.node_of_shard topo 2);
  Alcotest.(check string) "shard name" "s3" (Topology.shard_name topo 3)

(* placement --------------------------------------------------------------- *)

let test_placement_ranges () =
  let p = Placement.create (Topology.one_per_node ~shards:4) in
  Placement.partition p ~server:"k" ~keys:100;
  Alcotest.(check (list (triple int int int)))
    "even split, remainder to the first ranges"
    [ (0, 0, 25); (1, 25, 50); (2, 50, 75); (3, 75, 100) ]
    (Placement.ranges p ~server:"k");
  let loc = Placement.locate p ~server:"k" ~key:60 in
  Alcotest.(check int) "key 60 on shard 2" 2 loc.Placement.shard;
  Alcotest.(check int) "hosted by node 2" 2 loc.Placement.node;
  Alcotest.(check string) "instance name" "k.s2" loc.Placement.instance;
  Alcotest.(check int) "range base" 50 loc.Placement.base;
  (* uneven split: 10 keys over 4 shards is 3,3,2,2 *)
  let q = Placement.create (Topology.one_per_node ~shards:4) in
  Placement.partition q ~server:"k" ~keys:10;
  Alcotest.(check (list (triple int int int)))
    "10 over 4" [ (0, 0, 3); (1, 3, 6); (2, 6, 8); (3, 8, 10) ]
    (Placement.ranges q ~server:"k");
  Alcotest.(check_raises) "double placement rejected"
    (Invalid_argument "Placement: keyspace k already placed")
    (fun () -> Placement.partition q ~server:"k" ~keys:10)

(* more shards than keys: the trailing ranges are empty, keys still
   route, and the out-of-range error reports the true bound (the last
   non-empty range's hi), not the last range's *)
let test_placement_more_shards_than_keys () =
  let p = Placement.create (Topology.one_per_node ~shards:4) in
  Placement.partition p ~server:"k" ~keys:2;
  Alcotest.(check (list (triple int int int)))
    "2 keys over 4 shards leaves two empty ranges"
    [ (0, 0, 1); (1, 1, 2); (2, 2, 2); (3, 2, 2) ]
    (Placement.ranges p ~server:"k");
  Alcotest.(check int) "key 0 on shard 0" 0
    (Placement.locate p ~server:"k" ~key:0).Placement.shard;
  Alcotest.(check int) "key 1 on shard 1" 1
    (Placement.locate p ~server:"k" ~key:1).Placement.shard;
  Alcotest.(check_raises) "key 2 reports the real bound"
    (Invalid_argument "Placement: key 2 outside keyspace k [0, 2)")
    (fun () -> ignore (Placement.locate p ~server:"k" ~key:2));
  Alcotest.(check_raises) "negative key reports the real bound"
    (Invalid_argument "Placement: key -1 outside keyspace k [0, 2)")
    (fun () -> ignore (Placement.locate p ~server:"k" ~key:(-1)))

(* Every location is built once, when the keyspace is placed. For
   every key, [locate] must equal a record built per call the way the
   routing used to: the hosting node, [instance_name] and the range
   base. Out-of-range keys still raise, and a lookup allocates
   nothing. *)
let test_placement_locations_built_once () =
  let topo = Topology.one_per_node ~shards:3 in
  let p = Placement.create topo in
  Placement.partition p ~server:"k" ~keys:100;
  let reference shard base =
    {
      Placement.shard;
      node = Topology.node_of_shard topo shard;
      instance = Placement.instance_name p ~server:"k" ~shard;
      base;
    }
  in
  let ranges = Placement.ranges p ~server:"k" in
  for key = 0 to 99 do
    let shard, lo, _ = List.find (fun (_, lo, hi) -> lo <= key && key < hi) ranges in
    if Placement.locate p ~server:"k" ~key <> reference shard lo then
      Alcotest.failf "key %d misrouted" key
  done;
  Alcotest.(check_raises) "out of range"
    (Invalid_argument "Placement: key 100 outside keyspace k [0, 100)")
    (fun () -> ignore (Placement.locate p ~server:"k" ~key:100));
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    for key = 0 to 99 do
      ignore (Sys.opaque_identity (Placement.locate p ~server:"k" ~key))
    done
  done;
  (* 10,000 lookups; the words are the two [Gc.minor_words] boxes *)
  let words = Gc.minor_words () -. before in
  if words > 16. then Alcotest.failf "10,000 lookups allocated %.0f words" words

(* placement-aware directory ----------------------------------------------- *)

let test_range_entries () =
  let id = Tabs_name.Name_server.range_object_id ~lo:25 ~hi:50 in
  Alcotest.(check (option (pair int int)))
    "range round-trips" (Some (25, 50))
    (Tabs_name.Name_server.range_of_entry
       { Tabs_name.Name_server.name = "k"; node = 1; server = "k.s1"; object_id = id });
  Alcotest.(check (option (pair int int)))
    "plain object id has no range" None
    (Tabs_name.Name_server.range_of_entry
       { Tabs_name.Name_server.name = "k"; node = 0; server = "a"; object_id = "accounts" })

let test_lookup_owner_across_nodes () =
  let c = Cluster.create ~nodes:2 () in
  let arr = Sharded.Int_array.deploy c ~name:"k" ~keys:32 () in
  ignore arr;
  (* node 1 resolves the owner of a key it does not host: local miss,
     broadcast, covering reply from node 0 *)
  let ns1 = Node.ns (Cluster.node c 1) in
  let entry =
    Cluster.run_fiber c ~node:1 (fun () ->
        Tabs_name.Name_server.lookup_owner ns1 ~name:"k" ~key:3 ())
  in
  (match entry with
  | None -> Alcotest.fail "no owner found for key 3"
  | Some e ->
      Alcotest.(check string) "owning instance" "k.s0"
        e.Tabs_name.Name_server.server;
      Alcotest.(check int) "owning node" 0 e.Tabs_name.Name_server.node;
      (match Placement.location_of_entry e with
      | None -> Alcotest.fail "entry did not decode to a location"
      | Some loc ->
          Alcotest.(check int) "decoded shard" 0 loc.Placement.shard;
          Alcotest.(check int) "decoded base" 0 loc.Placement.base));
  let nobody =
    Cluster.run_fiber c ~node:1 (fun () ->
        Tabs_name.Name_server.lookup_owner ns1 ~name:"k" ~key:999
          ~max_wait:20_000 ())
  in
  Alcotest.(check bool) "no covering owner for out-of-range key" true
    (nobody = None)

(* routing ----------------------------------------------------------------- *)

let test_single_shard_commits_locally () =
  let c = Cluster.create ~nodes:4 () in
  let arr = Sharded.Int_array.deploy c ~name:"k" ~keys:64 () in
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          (* keys 1 and 2 live in shard 0's range [0,16) *)
          Sharded.Int_array.set arr rpc tid 1 11;
          Sharded.Int_array.set arr rpc tid 2 22));
  Alcotest.(check int) "single-shard commit is not distributed" 0
    (Tabs_tm.Txn_mgr.distributed_commits tm);
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          (* keys 1 and 20 span shards 0 and 1 *)
          Sharded.Int_array.set arr rpc tid 1 111;
          Sharded.Int_array.set arr rpc tid 20 222));
  Alcotest.(check int) "cross-shard commit is tree 2PC" 1
    (Tabs_tm.Txn_mgr.distributed_commits tm);
  let v1, v20 =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            ( Sharded.Int_array.get arr rpc tid 1,
              Sharded.Int_array.get arr rpc tid 20 )))
  in
  Alcotest.(check (pair int int)) "both writes visible" (111, 222) (v1, v20)

let test_cross_shard_transfer () =
  let c = Cluster.create ~nodes:2 () in
  let acct = Sharded.Accounts.deploy c ~name:"acct" ~accounts:32 () in
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  (* account 2 on shard 0, account 20 on shard 1 *)
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Sharded.Accounts.deposit acct rpc tid 2 100);
      Txn_lib.execute_transaction tm (fun tid ->
          Sharded.Accounts.transfer acct rpc tid ~from_:2 ~to_:20 30));
  Alcotest.(check bool) "transfer used distributed commit" true
    (Tabs_tm.Txn_mgr.distributed_commits tm > 0);
  let b2, b20 =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            ( Sharded.Accounts.balance acct rpc tid 2,
              Sharded.Accounts.balance acct rpc tid 20 )))
  in
  Alcotest.(check (pair int int)) "money conserved across shards" (70, 30)
    (b2, b20);
  (* the funds check survives sharding: an overdraft aborts the whole
     transaction and both balances stand *)
  Cluster.run_fiber c ~node:0 (fun () ->
      match
        Txn_lib.execute_transaction tm (fun tid ->
            Sharded.Accounts.transfer acct rpc tid ~from_:2 ~to_:20 1000)
      with
      | () -> Alcotest.fail "overdraft committed"
      | exception Errors.Server_error "InsufficientFunds" -> ());
  let b2', b20' =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            ( Sharded.Accounts.balance acct rpc tid 2,
              Sharded.Accounts.balance acct rpc tid 20 )))
  in
  Alcotest.(check (pair int int)) "balances unchanged after overdraft"
    (70, 30) (b2', b20');
  List.iter
    (fun (_, inst) ->
      Alcotest.(check int) "no leaked locks" 0
        (Tabs_lock.Lock_manager.total_holds
           (Server_lib.lock_manager (Account_server.server inst))))
    (Sharded.Accounts.instances acct)

(* seed identity at 1 shard ------------------------------------------------ *)

(* The seed probe (test_group_commit.ml) run against a 1-node cluster's
   one shard and a sharded deployment, touching the instance directly:
   the sharded machinery must not perturb a single primitive charge or
   the virtual finish time. *)
let test_one_shard_probe_identical () =
  let c = Cluster.create ~nodes:1 () in
  let arr = Sharded.Int_array.deploy c ~name:"a0" ~keys:64 () in
  let inst =
    match Sharded.Int_array.instances arr with
    | [ (0, inst) ] -> inst
    | _ -> Alcotest.fail "expected exactly one shard instance"
  in
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 in
  let engine = Cluster.engine c in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          ignore (Int_array_server.get inst tid 0));
      Txn_lib.execute_transaction tm (fun tid ->
          let v = Int_array_server.get inst tid 0 in
          Int_array_server.set inst tid 0 (v + 1)));
  let count p = Metrics.count (Engine.metrics engine) p in
  Alcotest.(check int) "small messages" 20
    (count Cost_model.Small_contiguous_message);
  Alcotest.(check int) "large messages" 2
    (count Cost_model.Large_contiguous_message);
  Alcotest.(check int) "random paged IO" 1 (count Cost_model.Random_paged_io);
  Alcotest.(check int) "stable writes" 1
    (count Cost_model.Stable_storage_write);
  Alcotest.(check int) "datagrams" 0 (count Cost_model.Datagram);
  Alcotest.(check int) "forces" 1
    (Tabs_wal.Log_manager.force_count (Node.log n0));
  Alcotest.(check int) "virtual finish time" 313_800 (Engine.now engine)

(* The routed path at 1 shard against the plain local-RPC path: same
   transactions, every primitive count equal, same finish time. *)
let run_routed_probe () =
  let c = Cluster.create ~nodes:1 () in
  let arr = Sharded.Int_array.deploy c ~name:"k" ~keys:64 () in
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          ignore (Sharded.Int_array.get arr rpc tid 0));
      Txn_lib.execute_transaction tm (fun tid ->
          let v = Sharded.Int_array.get arr rpc tid 0 in
          Sharded.Int_array.set arr rpc tid 0 (v + 1)));
  c

let run_direct_probe () =
  let c = Cluster.create ~nodes:1 () in
  let n0 = Cluster.node c 0 in
  ignore
    (Int_array_server.create (Node.env n0) ~name:"k.s0" ~segment:1 ~cells:64 ());
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          ignore (Int_array_server.call_get rpc ~dest:0 ~server:"k.s0" tid 0));
      Txn_lib.execute_transaction tm (fun tid ->
          let v = Int_array_server.call_get rpc ~dest:0 ~server:"k.s0" tid 0 in
          Int_array_server.call_set rpc ~dest:0 ~server:"k.s0" tid 0 (v + 1)));
  c

let test_one_shard_routing_costs_nothing () =
  let routed = run_routed_probe () and direct = run_direct_probe () in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Cost_model.name p)
        (Metrics.count (Engine.metrics (Cluster.engine direct)) p)
        (Metrics.count (Engine.metrics (Cluster.engine routed)) p))
    Cost_model.all;
  Alcotest.(check int) "same virtual finish time"
    (Engine.now (Cluster.engine direct))
    (Engine.now (Cluster.engine routed))

(* The Section 5 local read and write rows, reproduced through the
   sharded path on a 1-shard cluster: same per-transaction elapsed
   virtual time as the seed's pinned vectors. *)
let measure_sharded_txn body =
  let c = Cluster.create ~nodes:1 () in
  let arr = Sharded.Int_array.deploy c ~name:"array0" ~keys:1024 () in
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  let engine = Cluster.engine c in
  Cluster.run_fiber c ~node:0 (fun () ->
      (* one warmup, two measured: both measured iterations must agree *)
      Txn_lib.execute_transaction tm (fun tid -> body arr rpc tid);
      let t0 = Engine.now engine in
      Txn_lib.execute_transaction tm (fun tid -> body arr rpc tid);
      let t1 = Engine.now engine in
      Txn_lib.execute_transaction tm (fun tid -> body arr rpc tid);
      let t2 = Engine.now engine in
      Alcotest.(check int) "steady state" (t1 - t0) (t2 - t1);
      t1 - t0)

let test_one_shard_workload_vectors () =
  Alcotest.(check int) "1 Local Read, No Paging via sharded path" 98_100
    (measure_sharded_txn (fun arr rpc tid ->
         ignore (Sharded.Int_array.get arr rpc tid 0)));
  Alcotest.(check int) "1 Local Write, No Paging via sharded path" 235_900
    (measure_sharded_txn (fun arr rpc tid ->
         Sharded.Int_array.set arr rpc tid 0 1))

(* run_fiber failure modes ------------------------------------------------- *)

let test_run_fiber_killed () =
  let c = Cluster.create ~nodes:1 () in
  let n0 = Cluster.node c 0 in
  Engine.at (Cluster.engine c) ~delay:1_000 (fun () -> Node.crash n0);
  match Cluster.run_fiber c ~node:0 (fun () -> Engine.delay 10_000) with
  | () -> Alcotest.fail "fiber survived its node's crash"
  | exception Errors.Fiber_killed { node } ->
      Alcotest.(check int) "killed on node 0" 0 node

let test_run_fiber_stalled () =
  let c = Cluster.create ~nodes:1 () in
  let q : unit Engine.Waitq.t = Engine.Waitq.create () in
  match Cluster.run_fiber c ~node:0 (fun () -> Engine.Waitq.wait q) with
  | () -> Alcotest.fail "wait on a never-signaled queue returned"
  | exception Errors.Fiber_stalled { node; reason } ->
      Alcotest.(check int) "stalled on node 0" 0 node;
      Alcotest.(check bool) "diagnosed as suspended, not unscheduled" true
        (String.length reason > 0
        && String.sub reason 0 9 = "suspended")

(* per-node metrics rollup ------------------------------------------------- *)

let test_per_node_rollup () =
  let c = Cluster.create ~nodes:2 () in
  let arr = Sharded.Int_array.deploy c ~name:"k" ~keys:32 () in
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          (* key 1 on shard 0 (local), key 20 on shard 1 (remote) *)
          Sharded.Int_array.set arr rpc tid 1 1;
          Sharded.Int_array.set arr rpc tid 20 2));
  let m = Engine.metrics (Cluster.engine c) in
  let tracked = Metrics.nodes_tracked m in
  Alcotest.(check bool) "node 0 charged" true (List.mem 0 tracked);
  Alcotest.(check bool) "node 1 charged" true (List.mem 1 tracked);
  (* both participants forced a commit record: each node's rollup shows
     stable-storage writes, and the rollup never exceeds the global *)
  Alcotest.(check bool) "node 0 paid forces" true
    (Metrics.node_weight m ~node:0 Cost_model.Stable_storage_write > 0.);
  Alcotest.(check bool) "node 1 paid forces" true
    (Metrics.node_weight m ~node:1 Cost_model.Stable_storage_write > 0.);
  let rollup_sum =
    List.fold_left
      (fun acc n ->
        acc +. Metrics.node_weight m ~node:n Cost_model.Stable_storage_write)
      0. tracked
  in
  Alcotest.(check bool) "rollup bounded by the global counter" true
    (rollup_sum <= Metrics.weight m Cost_model.Stable_storage_write +. 0.001)

(* zipf -------------------------------------------------------------------- *)

let test_zipf_shape () =
  let rng = Rng.create ~seed:9 in
  let z = Rng.Zipf.create ~n:100 ~theta:0.9 in
  let freq = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let k = Rng.Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 100);
    freq.(k) <- freq.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 is the hottest" true
    (Array.for_all (fun f -> f <= freq.(0)) freq);
  Alcotest.(check bool) "rank 0 clearly above uniform" true
    (freq.(0) > 500);
  (* theta 0 degenerates to uniform: no key should dominate *)
  let u = Rng.Zipf.create ~n:100 ~theta:0. in
  let ufreq = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let k = Rng.Zipf.sample u rng in
    ufreq.(k) <- ufreq.(k) + 1
  done;
  Alcotest.(check bool) "theta 0 is flat" true
    (Array.for_all (fun f -> f < 300) ufreq)

(* convergence property ---------------------------------------------------- *)

(* Cross-shard transactions with group commit, background checkpointing,
   and comm batching all on, over a lossy network: after healing and
   draining, every transaction is atomic across its three shards, trace
   outcomes converge, nothing is in doubt, and no locks leak. *)
let conv_txns = 6

let run_convergence_case ~loss ~seed () =
  let c =
    Cluster.create ~nodes:3 ~seed
      ~group_commit:Tabs_recovery.Group_commit.default ~checkpointing:100_000
      ~comm_batching:Tabs_net.Comm_mgr.default_batching ()
  in
  let arr = Sharded.Int_array.deploy c ~name:"k" ~keys:48 () in
  let recorder = Recorder.attach (Cluster.engine c) in
  Network.set_loss (Cluster.network c) loss;
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.spawn c ~node:0 (fun () ->
      for i = 0 to conv_txns - 1 do
        try
          Txn_lib.execute_transaction tm (fun tid ->
              (* one key in each shard's range: [0,16), [16,32), [32,48) *)
              Sharded.Int_array.set arr rpc tid i (100 + i);
              Sharded.Int_array.set arr rpc tid (16 + i) (100 + i);
              Sharded.Int_array.set arr rpc tid (32 + i) (100 + i))
        with
        | Errors.Lock_timeout _ | Errors.Transaction_is_aborted _
        | Rpc.Rpc_timeout _ ->
            ()
      done);
  Cluster.run_until c ~time:600_000_000;
  Network.set_loss (Cluster.network c) 0.0;
  Cluster.run c;
  let entries = Recorder.entries recorder in
  Recorder.detach recorder;
  let converged = Crash_harness.outcomes_agree entries in
  let atomic =
    Cluster.run_fiber c ~node:0 (fun () ->
        List.for_all
          (fun i ->
            Txn_lib.execute_transaction tm (fun tid ->
                let a = Sharded.Int_array.get arr rpc tid i in
                let b = Sharded.Int_array.get arr rpc tid (16 + i) in
                let c' = Sharded.Int_array.get arr rpc tid (32 + i) in
                a = b && b = c' && (a = 0 || a = 100 + i)))
          (List.init conv_txns (fun i -> i)))
  in
  let nothing_in_doubt = Crash_harness.nothing_in_doubt (Cluster.nodes c) in
  let no_leaked_locks =
    Crash_harness.no_locks_held
      (List.map snd (Sharded.Int_array.instances arr))
  in
  let spans_balanced = Span.balanced (Span.of_entries entries) in
  converged && atomic && nothing_in_doubt && no_leaked_locks
  && spans_balanced

let prop_cross_shard_convergence =
  QCheck.Test.make
    ~name:
      "cross-shard transactions converge under loss with group commit, \
       checkpointing, and comm batching on"
    ~count:6
    QCheck.(pair bool small_int)
    (fun (heavy, seed) ->
      run_convergence_case
        ~loss:(if heavy then 0.20 else 0.05)
        ~seed:(seed + 1) ())

let suites =
  [
    ( "scaleout",
      [
        quick "topology units" test_topology_units;
        quick "placement ranges and locate" test_placement_ranges;
        quick "placement locations built once" test_placement_locations_built_once;
        quick "placement with more shards than keys"
          test_placement_more_shards_than_keys;
        quick "range directory entries" test_range_entries;
        quick "lookup_owner across nodes" test_lookup_owner_across_nodes;
        quick "single-shard local, cross-shard 2PC"
          test_single_shard_commits_locally;
        quick "cross-shard transfer atomicity" test_cross_shard_transfer;
        quick "1-shard probe identical to seed" test_one_shard_probe_identical;
        quick "1-shard routing charges nothing extra"
          test_one_shard_routing_costs_nothing;
        quick "1-shard workload vectors identical"
          test_one_shard_workload_vectors;
        quick "run_fiber reports killed fibers" test_run_fiber_killed;
        quick "run_fiber diagnoses deadlocked fibers" test_run_fiber_stalled;
        quick "per-node metrics rollup" test_per_node_rollup;
        quick "zipf generator shape" test_zipf_shape;
        QCheck_alcotest.to_alcotest prop_cross_shard_convergence;
      ] );
  ]
