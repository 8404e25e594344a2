(* Transaction Manager-focused tests: the read-only optimization, the
   presumed-abort status protocol, active-transaction reporting, and
   commit/abort idempotence. *)

open Tabs_sim
open Tabs_core
open Tabs_tm
open Tabs_servers

let quick name f = Alcotest.test_case name `Quick f

let two_nodes ?read_only_optimization () =
  let c = Cluster.create ?read_only_optimization ~nodes:2 () in
  List.iter
    (fun node ->
      ignore
        (Int_array_server.create (Node.env node)
           ~name:(Printf.sprintf "a%d" (Node.id node))
           ~segment:1 ~cells:64 ()))
    (Cluster.nodes c);
  c

let ro_txn c =
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          ignore (Int_array_server.call_get rpc ~dest:0 ~server:"a0" tid 0);
          ignore (Int_array_server.call_get rpc ~dest:1 ~server:"a1" tid 0)))

let test_ro_commit_no_force () =
  let c = two_nodes () in
  let engine = Cluster.engine c in
  ro_txn c;
  Alcotest.(check int) "read-only distributed commit forces nothing" 0
    (Metrics.count (Engine.metrics engine) Cost_model.Stable_storage_write);
  Alcotest.(check int) "two datagrams: prepare + read-only vote" 2
    (Metrics.count (Engine.metrics engine) Cost_model.Datagram)

let test_ro_disabled_full_protocol () =
  let c = two_nodes ~read_only_optimization:false () in
  let engine = Cluster.engine c in
  ro_txn c;
  Alcotest.(check int) "full 2PC forces twice" 2
    (Metrics.count (Engine.metrics engine) Cost_model.Stable_storage_write);
  Alcotest.(check int) "four datagrams" 4
    (Metrics.count (Engine.metrics engine) Cost_model.Datagram)

let test_local_ro_commit_no_force () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let arr = Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:8 () in
  let tm = Node.tm node in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          ignore (Int_array_server.get arr tid 0)));
  Alcotest.(check int) "local read-only commit writes no log" 0
    (Metrics.count (Engine.metrics (Cluster.engine c))
       Cost_model.Stable_storage_write)

let test_status_query_presumed_abort () =
  (* a coordinator with no memory of a transaction answers Aborted *)
  let c = two_nodes () in
  let n1 = Cluster.node c 1 in
  let unknown = Tabs_wal.Tid.top ~node:0 ~seq:999 in
  (* simulate a stranded participant on node 1 asking node 0 *)
  let outcome = ref None in
  Tabs_net.Comm_mgr.add_datagram_handler (Node.cm n1) (fun ~src:_ payload ->
      match payload with
      | Txn_mgr.Tm_status_reply (tid, o) when Tabs_wal.Tid.equal tid unknown ->
          outcome := Some o
      | _ -> ());
  Cluster.run_fiber c ~node:1 (fun () ->
      Tabs_net.Comm_mgr.send_datagram (Node.cm n1) ~dest:0
        (Txn_mgr.Tm_status_query unknown);
      Engine.delay 200_000);
  Alcotest.(check bool) "presumed abort" true (!outcome = Some Txn_mgr.Aborted)

let test_active_txns_reported () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let arr = Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:8 () in
  let tm = Node.tm node in
  Cluster.spawn c ~node:0 (fun () ->
      let tid = Txn_lib.begin_transaction tm () in
      Int_array_server.set arr tid 0 1;
      Alcotest.(check int) "one active txn at checkpoint time" 1
        (List.length (Txn_mgr.active_txns tm));
      Txn_lib.abort_transaction tm tid;
      Alcotest.(check int) "none after abort" 0
        (List.length (Txn_mgr.active_txns tm)));
  Cluster.run c

let test_commit_after_abort_refused () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let arr = Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:8 () in
  let tm = Node.tm node in
  let result =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        Int_array_server.set arr tid 0 1;
        Txn_lib.abort_transaction tm tid;
        Txn_lib.end_transaction tm tid)
  in
  Alcotest.(check bool) "commit of aborted txn fails" false result

let test_unique_tids () =
  let c = Cluster.create ~nodes:2 () in
  let tids =
    List.concat_map
      (fun node ->
        Cluster.run_fiber c ~node:(Node.id node) (fun () ->
            List.init 5 (fun _ ->
                let tid = Txn_lib.begin_transaction (Node.tm node) () in
                Txn_lib.abort_transaction (Node.tm node) tid;
                tid)))
      (Cluster.nodes c)
  in
  let unique = List.sort_uniq Tabs_wal.Tid.compare tids in
  Alcotest.(check int) "globally unique" (List.length tids) (List.length unique)

(* An abort covers the aborted tid's whole subtree and nothing else:
   an aborted subtransaction's child is aborted, its parent and sibling
   are not, and a top-level abort reaches every depth. *)
let test_is_aborted_covers_descendants () =
  let c = Cluster.create ~nodes:1 () in
  let tm = Node.tm (Cluster.node c 0) in
  let aborted =
    Cluster.run_fiber c ~node:0 (fun () ->
        (* top, sub, sibling, grandchild (a child of sub) *)
        let family () =
          let top = Txn_lib.begin_transaction tm () in
          let sub = Txn_lib.begin_transaction tm ~parent:top () in
          let sibling = Txn_lib.begin_transaction tm ~parent:top () in
          [ top; sub; sibling; Txn_lib.begin_transaction tm ~parent:sub () ]
        in
        let a = family () and b = family () and other = family () in
        Txn_lib.abort_transaction tm (List.nth a 1);
        Txn_lib.abort_transaction tm (List.hd b);
        List.map (List.map (Txn_mgr.is_aborted tm)) [ a; b; other ])
  in
  Alcotest.(check (list (list bool)))
    "sub aborted; top aborted; untouched"
    [
      [ false; true; false; true ];
      [ true; true; true; true ];
      [ false; false; false; false ];
    ]
    aborted

let suites =
  [
    ( "tm",
      [
        quick "RO commit no force" test_ro_commit_no_force;
        quick "RO disabled" test_ro_disabled_full_protocol;
        quick "local RO no force" test_local_ro_commit_no_force;
        quick "presumed abort" test_status_query_presumed_abort;
        quick "active txns" test_active_txns_reported;
        quick "commit after abort" test_commit_after_abort_refused;
        quick "abort covers descendants" test_is_aborted_covers_descendants;
        quick "unique tids" test_unique_tids;
      ] );
  ]
