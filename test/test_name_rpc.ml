(* Tests for the Name Server (registration, broadcast lookup, replicated
   names) and the RPC layer (local/remote calls, error propagation,
   timeouts, cost accounting). *)

open Tabs_sim
open Tabs_core
open Tabs_servers

let quick name f = Alcotest.test_case name `Quick f

(* Name server ------------------------------------------------------------- *)

let test_local_lookup () =
  let c = Cluster.create ~nodes:2 () in
  let ns0 = Node.ns (Cluster.node c 0) in
  Tabs_name.Name_server.register ns0 ~name:"printer" ~server:"spooler"
    ~object_id:"queue-1";
  let entries =
    Cluster.run_fiber c ~node:0 (fun () ->
        Tabs_name.Name_server.lookup ns0 ~name:"printer" ())
  in
  (match entries with
  | [ e ] ->
      Alcotest.(check string) "server" "spooler" e.Tabs_name.Name_server.server;
      Alcotest.(check int) "node" 0 e.Tabs_name.Name_server.node
  | _ -> Alcotest.fail "expected one entry");
  ()

let test_broadcast_lookup () =
  let c = Cluster.create ~nodes:3 () in
  let ns2 = Node.ns (Cluster.node c 2) in
  Tabs_name.Name_server.register ns2 ~name:"mail" ~server:"mailer"
    ~object_id:"inbox";
  (* node 0 does not know "mail"; its Name Server broadcasts *)
  let entries =
    Cluster.run_fiber c ~node:0 (fun () ->
        Tabs_name.Name_server.lookup (Node.ns (Cluster.node c 0)) ~name:"mail" ())
  in
  (match entries with
  | [ e ] -> Alcotest.(check int) "found on node 2" 2 e.Tabs_name.Name_server.node
  | other -> Alcotest.failf "expected one entry, got %d" (List.length other));
  ()

let test_lookup_multiple_replicas () =
  let c = Cluster.create ~nodes:3 () in
  List.iter
    (fun node ->
      Tabs_name.Name_server.register (Node.ns node) ~name:"dir"
        ~server:(Printf.sprintf "rep%d" (Node.id node))
        ~object_id:"root")
    (Cluster.nodes c);
  let entries =
    Cluster.run_fiber c ~node:0 (fun () ->
        Tabs_name.Name_server.lookup (Node.ns (Cluster.node c 0)) ~name:"dir"
          ~desired:3 ())
  in
  Alcotest.(check int) "all three replicas found" 3 (List.length entries)

let test_lookup_miss_times_out () =
  let c = Cluster.create ~nodes:2 () in
  let entries =
    Cluster.run_fiber c ~node:0 (fun () ->
        Tabs_name.Name_server.lookup (Node.ns (Cluster.node c 0))
          ~name:"no-such-name" ~max_wait:100_000 ())
  in
  Alcotest.(check int) "empty result" 0 (List.length entries)

let test_deregister () =
  let c = Cluster.create ~nodes:1 () in
  let ns = Node.ns (Cluster.node c 0) in
  Tabs_name.Name_server.register ns ~name:"x" ~server:"s" ~object_id:"o";
  Tabs_name.Name_server.deregister ns ~name:"x" ~server:"s";
  let entries =
    Cluster.run_fiber c ~node:0 (fun () ->
        Tabs_name.Name_server.lookup ns ~name:"x" ~max_wait:50_000 ())
  in
  Alcotest.(check int) "gone" 0 (List.length entries)

(* RPC ---------------------------------------------------------------------- *)

let test_rpc_local_cost () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let arr = Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:8 () in
  ignore arr;
  let tm = Node.tm node in
  let engine = Cluster.engine c in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          let before = Metrics.count (Engine.metrics engine) Cost_model.Data_server_call in
          ignore (Int_array_server.call_get (Node.rpc node) ~dest:0 ~server:"a" tid 0);
          Alcotest.(check int) "one DSC charged" (before + 1)
            (Metrics.count (Engine.metrics engine) Cost_model.Data_server_call)))

let test_rpc_remote_cost () =
  let c = Cluster.create ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  ignore (Int_array_server.create (Node.env n1) ~name:"a1" ~segment:1 ~cells:8 ());
  let tm = Node.tm n0 in
  let engine = Cluster.engine c in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          let before =
            Metrics.count (Engine.metrics engine) Cost_model.Inter_node_data_server_call
          in
          ignore (Int_array_server.call_get (Node.rpc n0) ~dest:1 ~server:"a1" tid 0);
          Alcotest.(check int) "one inter-node call charged" (before + 1)
            (Metrics.count (Engine.metrics engine)
               Cost_model.Inter_node_data_server_call)))

let test_rpc_error_propagates () =
  let c = Cluster.create ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  ignore (Int_array_server.create (Node.env n1) ~name:"a1" ~segment:1 ~cells:8 ());
  let tm = Node.tm n0 in
  let got =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        let r =
          try
            ignore
              (Int_array_server.call_get (Node.rpc n0) ~dest:1 ~server:"a1" tid
                 9999);
            "no-error"
          with Errors.Server_error msg -> msg
        in
        Txn_lib.abort_transaction tm tid;
        r)
  in
  Alcotest.(check string) "server error crosses the wire" "IndexOutOfRange" got

let test_rpc_unknown_server () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let tm = Node.tm node in
  let got =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        let r =
          try
            ignore
              (Rpc.call (Node.rpc node) ~dest:0 ~server:"ghost" ~tid ~op:"x"
                 ~arg:"");
            "no-error"
          with Errors.Server_error _ -> "error"
        in
        Txn_lib.abort_transaction tm tid;
        r)
  in
  Alcotest.(check string) "unknown server reported" "error" got

let test_rpc_unknown_op () =
  let c = Cluster.create ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  ignore (Account_server.create (Node.env n1) ~name:"b1" ~segment:1 ~accounts:4 ());
  let tm = Node.tm n0 in
  let got =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        let r =
          try
            ignore
              (Rpc.call (Node.rpc n0) ~dest:1 ~server:"b1" ~tid ~op:"embezzle"
                 ~arg:"");
            "no-error"
          with Errors.Server_error _ -> "error"
        in
        Txn_lib.abort_transaction tm tid;
        r)
  in
  Alcotest.(check string) "unknown op reported" "error" got

let test_rpc_timeout_on_dead_node () =
  let c = Cluster.create ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  ignore (Int_array_server.create (Node.env n1) ~name:"a1" ~segment:1 ~cells:8 ());
  Node.crash n1;
  let tm = Node.tm n0 in
  let timed_out =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        let r =
          try
            ignore
              (Int_array_server.call_get (Node.rpc n0) ~dest:1 ~server:"a1" tid 0);
            false
          with Rpc.Rpc_timeout _ -> true
        in
        Txn_lib.abort_transaction tm tid;
        r)
  in
  Alcotest.(check bool) "dead node times out" true timed_out

let test_rpc_aborted_txn_rejected () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let arr = Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:8 () in
  ignore arr;
  let tm = Node.tm node in
  let rejected =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        Txn_lib.abort_transaction tm tid;
        try
          ignore (Int_array_server.call_get (Node.rpc node) ~dest:0 ~server:"a" tid 0);
          false
        with Errors.Transaction_is_aborted _ -> true)
  in
  Alcotest.(check bool) "TransactionIsAborted raised" true rejected

let suites =
  [
    ( "name_server",
      [
        quick "local lookup" test_local_lookup;
        quick "broadcast lookup" test_broadcast_lookup;
        quick "replicated names" test_lookup_multiple_replicas;
        quick "miss times out" test_lookup_miss_times_out;
        quick "deregister" test_deregister;
      ] );
    ( "rpc",
      [
        quick "local cost" test_rpc_local_cost;
        quick "remote cost" test_rpc_remote_cost;
        quick "error propagation" test_rpc_error_propagates;
        quick "unknown server" test_rpc_unknown_server;
        quick "unknown op" test_rpc_unknown_op;
        quick "timeout on dead node" test_rpc_timeout_on_dead_node;
        quick "aborted txn rejected" test_rpc_aborted_txn_rejected;
      ] );
  ]
