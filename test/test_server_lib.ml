(* Tests for the Table 3-1 server library itself: the marked-object
   batch (LockAndMark / PinAndBufferMarkedObjects /
   LogAndUnPinMarkedObjects), ExecuteTransaction, pinning discipline,
   and in-doubt relocking. *)

open Tabs_lock
open Tabs_core

let quick name f = Alcotest.test_case name `Quick f

let setup () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let server =
    Server_lib.create (Node.env node) ~name:"raw" ~segment:7 ~pages:16 ()
  in
  (c, node, server)

let test_marked_batch () =
  (* the B-tree retrofit pattern: set all locks first, then pin and
     buffer everything, modify, and log the whole batch *)
  let c, node, server = setup () in
  let tm = Node.tm node in
  let o1 = Server_lib.create_object_id server ~offset:0 ~length:8 in
  let o2 = Server_lib.create_object_id server ~offset:600 ~length:8 in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Server_lib.enter_operation server tid;
            Server_lib.lock_and_mark server tid o1 Mode.Write;
            Server_lib.lock_and_mark server tid o2 Mode.Write;
            (* marking twice is idempotent *)
            Server_lib.lock_and_mark server tid o1 Mode.Write;
            Server_lib.pin_and_buffer_marked_objects server tid;
            Server_lib.write_object server o1 "11111111";
            Server_lib.write_object server o2 "22222222";
            Server_lib.log_and_unpin_marked_objects server tid);
        Txn_lib.execute_transaction tm (fun tid ->
            Server_lib.enter_operation server tid;
            ( Server_lib.read_object server o1,
              Server_lib.read_object server o2 )))
  in
  Alcotest.(check (pair string string)) "batch applied" ("11111111", "22222222") v

let test_marked_batch_abort () =
  let c, node, server = setup () in
  let tm = Node.tm node in
  let o1 = Server_lib.create_object_id server ~offset:0 ~length:8 in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Server_lib.enter_operation server tid;
            Server_lib.lock_and_mark server tid o1 Mode.Write;
            Server_lib.pin_and_buffer_marked_objects server tid;
            Server_lib.write_object server o1 "baseline";
            Server_lib.log_and_unpin_marked_objects server tid);
        (let t = Txn_lib.begin_transaction tm () in
         Server_lib.enter_operation server t;
         Server_lib.lock_and_mark server t o1 Mode.Write;
         Server_lib.pin_and_buffer_marked_objects server t;
         Server_lib.write_object server o1 "doomed!!";
         Server_lib.log_and_unpin_marked_objects server t;
         Txn_lib.abort_transaction tm t);
        Txn_lib.execute_transaction tm (fun tid ->
            Server_lib.enter_operation server tid;
            Server_lib.read_object server o1))
  in
  Alcotest.(check string) "batch rolled back" "baseline" v

let test_log_without_buffer_rejected () =
  let c, node, server = setup () in
  let tm = Node.tm node in
  let o = Server_lib.create_object_id server ~offset:0 ~length:8 in
  let raised =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        Server_lib.enter_operation server tid;
        let r =
          try
            Server_lib.log_and_unpin server tid o;
            false
          with Invalid_argument _ -> true
        in
        Txn_lib.abort_transaction tm tid;
        r)
  in
  Alcotest.(check bool) "log_and_unpin without pin_and_buffer" true raised

let test_unpin_all () =
  let c, node, server = setup () in
  let tm = Node.tm node in
  let o = Server_lib.create_object_id server ~offset:0 ~length:8 in
  Cluster.run_fiber c ~node:0 (fun () ->
      let tid = Txn_lib.begin_transaction tm () in
      Server_lib.enter_operation server tid;
      Server_lib.pin_object server o;
      Server_lib.pin_object server o;
      Alcotest.(check int) "pinned" 1 (Tabs_accent.Vm.pinned (Node.vm node));
      Server_lib.unpin_all_objects server;
      Alcotest.(check int) "all released" 0 (Tabs_accent.Vm.pinned (Node.vm node));
      Txn_lib.abort_transaction tm tid)

let test_execute_transaction_commits () =
  let c, _node, server = setup () in
  let o = Server_lib.create_object_id server ~offset:0 ~length:8 in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        let r =
          Server_lib.execute_transaction server (fun tid ->
              Server_lib.lock_object server tid o Mode.Write;
              Server_lib.pin_and_buffer server tid o;
              Server_lib.write_object server o "selfdone";
              Server_lib.log_and_unpin server tid o;
              "result")
        in
        (r, Server_lib.read_object server o))
  in
  Alcotest.(check (pair string string)) "server-owned txn" ("result", "selfdone") v

let test_execute_transaction_aborts_on_raise () =
  let c, _node, server = setup () in
  let o = Server_lib.create_object_id server ~offset:0 ~length:8 in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        (try
           Server_lib.execute_transaction server (fun tid ->
               Server_lib.lock_object server tid o Mode.Write;
               Server_lib.pin_and_buffer server tid o;
               Server_lib.write_object server o "leaking!";
               Server_lib.log_and_unpin server tid o;
               failwith "boom")
         with Failure _ -> ());
        Server_lib.read_object server o)
  in
  Alcotest.(check string) "aborted server txn undone" (String.make 8 '\000') v

let test_relock_in_doubt () =
  let c, node, server = setup () in
  let tm = Node.tm node in
  let o = Server_lib.create_object_id server ~offset:0 ~length:8 in
  let tid = Tabs_wal.Tid.top ~node:9 ~seq:1 in
  Cluster.run_fiber c ~node:0 (fun () ->
      Server_lib.relock_in_doubt server [ (tid, o) ]);
  (* the object is now inaccessible to other transactions *)
  let blocked =
    Cluster.run_fiber c ~node:0 (fun () ->
        let t = Txn_lib.begin_transaction tm () in
        Server_lib.enter_operation server t;
        let r =
          try
            Server_lib.lock_object server t o Mode.Read;
            false
          with Errors.Lock_timeout _ -> true
        in
        Txn_lib.abort_transaction tm t;
        r)
  in
  Alcotest.(check bool) "in-doubt data blocked" true blocked

(* A data server joins a transaction once: its first operation there
   costs the server [Overheads.data_server_txn] of CPU, a later one
   under the same transaction nothing, another server's first one the
   same again, and re-locking in-doubt data at restart (a re-join)
   nothing. *)
let test_join_charged_once_per_server () =
  let c, node, server = setup () in
  let other =
    Server_lib.create (Node.env node) ~name:"raw2" ~segment:8 ~pages:16 ()
  in
  let engine = Cluster.engine c in
  let o = Server_lib.create_object_id server ~offset:0 ~length:8 in
  let in_doubt = Tabs_wal.Tid.top ~node:9 ~seq:1 in
  let costs =
    Cluster.run_fiber c ~node:0 (fun () ->
        let cost f =
          let before = Tabs_sim.Engine.cpu_time engine ~process:"ds" in
          f ();
          Tabs_sim.Engine.cpu_time engine ~process:"ds" - before
        in
        let tid = Txn_lib.begin_transaction (Node.tm node) () in
        let first = cost (fun () -> Server_lib.enter_operation server tid) in
        let again = cost (fun () -> Server_lib.enter_operation server tid) in
        let second = cost (fun () -> Server_lib.enter_operation other tid) in
        Txn_lib.abort_transaction (Node.tm node) tid;
        let relock =
          cost (fun () -> Server_lib.relock_in_doubt server [ (in_doubt, o) ])
        in
        let after_relock =
          cost (fun () -> Server_lib.enter_operation server in_doubt)
        in
        [ first; again; second; relock; after_relock ])
  in
  let join = Tabs_sim.Overheads.data_server_txn in
  Alcotest.(check (list int))
    "first op, same server again, second server, relock, op after relock"
    [ join; 0; join; 0; 0 ] costs

let test_relock_ignores_other_segments () =
  let c, _, server = setup () in
  let foreign = Tabs_wal.Object_id.make ~segment:99 ~offset:0 ~length:8 in
  let tid = Tabs_wal.Tid.top ~node:9 ~seq:1 in
  (* must not raise, must not lock anything *)
  Cluster.run_fiber c ~node:0 (fun () ->
      Server_lib.relock_in_doubt server [ (tid, foreign) ]);
  Alcotest.(check bool) "foreign segment ignored" false
    (Server_lib.is_object_locked server
       (Server_lib.create_object_id server ~offset:0 ~length:8))

(* Bounded volatile state: after N commits on distinct keys and after 4N
   more, the lock table and the buffer pool's bookkeeping hold only what
   is live, never a trace of the keys and pages the server has seen. *)
let test_state_bounded_by_live () =
  let frames = 16 and n = 150 in
  let c = Cluster.create ~nodes:1 ~frames () in
  let node = Cluster.node c 0 in
  let arr =
    Tabs_servers.Int_array_server.create (Node.env node) ~name:"cells" ~segment:7
      ~cells:(Tabs_servers.Int_array_server.cells_per_page * 5 * n)
      ()
  in
  let locks = Server_lib.lock_manager (Tabs_servers.Int_array_server.server arr) in
  let vm = Node.vm node in
  (* commit [count] transactions from [first], each writing a cell on a
     page of its own *)
  let commits first count =
    Cluster.run_fiber c ~node:0 (fun () ->
        for k = first to first + count - 1 do
          Txn_lib.execute_transaction (Node.tm node) (fun tid ->
              Tabs_servers.Int_array_server.set arr tid
                (k * Tabs_servers.Int_array_server.cells_per_page)
                k)
        done)
  in
  let check after =
    let lru = Tabs_accent.Vm.lru vm and resident = Tabs_accent.Vm.resident vm in
    Alcotest.(check int) (after ^ ": no lock entry outlives its family") 0
      (Lock_manager.entries locks);
    Alcotest.(check int) (after ^ ": LRU length = resident") resident (List.length lru);
    Alcotest.(check bool) (after ^ ": resident within the pool") true (resident <= frames);
    Alcotest.(check bool) (after ^ ": dirty set within resident") true
      (List.length (Tabs_accent.Vm.dirty_pages vm) <= resident)
  in
  commits 0 n;
  check "after N";
  commits n (4 * n);
  check "after N + 4N"

let suites =
  [
    ( "server_lib",
      [
        quick "marked batch" test_marked_batch;
        quick "marked batch abort" test_marked_batch_abort;
        quick "log without buffer rejected" test_log_without_buffer_rejected;
        quick "unpin all" test_unpin_all;
        quick "execute_transaction commits" test_execute_transaction_commits;
        quick "execute_transaction aborts" test_execute_transaction_aborts_on_raise;
        quick "relock in doubt" test_relock_in_doubt;
        quick "join charged once per server" test_join_charged_once_per_server;
        quick "relock foreign segment" test_relock_ignores_other_segments;
        quick "state bounded by live state" test_state_bounded_by_live;
      ] );
  ]
