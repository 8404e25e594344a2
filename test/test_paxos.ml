(* Paxos Commit: healthy-path equivalence with 2PC, non-blocking
   in-doubt resolution by acceptor takeover, and the two resolution
   bugfix regressions (abandonment accounting; the restart
   status-query window). *)

open Tabs_sim
open Tabs_net
open Tabs_core
open Tabs_servers
open Tabs_obs

let paxos = Tabs_tm.Commit_protocol.Paxos { f = 1 }

let server_name dest = Printf.sprintf "a%d" dest

(* A cluster where every node hosts one int-array server. *)
let make_cluster ?commit_protocol ?(nodes = 4) ?(seed = 7) () =
  let c = Cluster.create ~nodes ~seed ?commit_protocol () in
  let arrays =
    List.map
      (fun node ->
        Int_array_server.create (Node.env node)
          ~name:(server_name (Node.id node))
          ~segment:1 ~cells:16 ())
      (Cluster.nodes c)
  in
  (c, arrays)

let write_everywhere _tm rpc ~nodes tid v =
  for dest = 0 to nodes - 1 do
    Int_array_server.call_set rpc ~dest ~server:(server_name dest) tid 0 v
  done

let read_cell c arrays ~node =
  Cluster.run_fiber c ~node (fun () ->
      Txn_lib.execute_transaction
        (Node.tm (Cluster.node c node))
        (fun tid -> Int_array_server.get (List.nth arrays node) tid 0))

let up_nodes c = List.filter Node.is_up (Cluster.nodes c)

(* Healthy cluster: a Paxos-committed transaction is durable and visible
   on every node, nothing is left in doubt, no locks leak. The
   coordinator (node 3) is deliberately not an acceptor. *)
let test_paxos_commit_healthy () =
  let c, arrays = make_cluster ~commit_protocol:paxos () in
  let n3 = Cluster.node c 3 in
  let tm = Node.tm n3 and rpc = Node.rpc n3 in
  let outcome =
    Cluster.run_fiber c ~node:3 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        write_everywhere tm rpc ~nodes:4 tid 42;
        Txn_lib.end_transaction tm tid)
  in
  Alcotest.(check bool) "committed" true outcome;
  Cluster.run c;
  for node = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "node %d sees the write" node)
      42
      (read_cell c arrays ~node)
  done;
  Alcotest.(check bool) "nothing in doubt" true
    (Crash_harness.nothing_in_doubt (Cluster.nodes c));
  Alcotest.(check bool) "no leaked locks" true
    (Crash_harness.no_locks_held arrays)

(* A healthy abort (vote timeout is not involved; a participant is
   unreachable from the start so its vote phase fails) must release
   everything under Paxos too. *)
let test_paxos_abort_releases () =
  let c, arrays = make_cluster ~commit_protocol:paxos () in
  let n3 = Cluster.node c 3 in
  let tm = Node.tm n3 and rpc = Node.rpc n3 in
  Cluster.spawn c ~node:3 (fun () ->
      try
        ignore
          (Txn_lib.execute_transaction tm (fun tid ->
               write_everywhere tm rpc ~nodes:4 tid 9;
               (* now make node 1 silent for the vote phase *)
               Node.crash (Cluster.node c 1)))
      with _ -> ());
  Cluster.run_until c ~time:120_000_000;
  Alcotest.(check bool) "nothing in doubt on survivors" true
    (Crash_harness.nothing_in_doubt (up_nodes c));
  (* survivors' cells still read 0 *)
  Alcotest.(check int) "node 0 unchanged" 0 (read_cell c arrays ~node:0);
  Alcotest.(check int) "node 2 unchanged" 0 (read_cell c arrays ~node:2)

(* The tentpole property: the coordinator crashes while its participants
   are prepared — under 2PC they would block until it returns; under
   Paxos Commit the acceptors take over and release them with NO
   restart of the coordinator, ever. *)
let test_takeover_releases_in_doubt () =
  let c, arrays = make_cluster ~commit_protocol:paxos () in
  let n3 = Cluster.node c 3 in
  let tm = Node.tm n3 and rpc = Node.rpc n3 in
  Cluster.spawn c ~node:3 (fun () ->
      try
        ignore
          (Txn_lib.execute_transaction tm (fun tid ->
               write_everywhere tm rpc ~nodes:4 tid 7))
      with _ -> ());
  (* kill the coordinator the moment a participant is prepared *)
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let rec watch () =
           Engine.delay 500;
           if Tabs_tm.Txn_mgr.in_doubt (Node.tm (Cluster.node c 1)) <> [] then
             Node.crash n3
           else watch ()
         in
         watch ()));
  let recorder = Recorder.attach (Cluster.engine c) in
  Cluster.run_until c ~time:120_000_000;
  let entries = Recorder.entries recorder in
  Recorder.detach recorder;
  (* released without the coordinator coming back *)
  Alcotest.(check bool) "coordinator still down" false (Node.is_up n3);
  Alcotest.(check bool) "survivors drained" true
    (Crash_harness.nothing_in_doubt (up_nodes c));
  let survivor_arrays = [ List.nth arrays 0; List.nth arrays 1; List.nth arrays 2 ] in
  Alcotest.(check bool) "locks released on survivors" true
    (Crash_harness.no_locks_held survivor_arrays);
  (* a takeover ballot really ran and decided *)
  let takeovers, decisions =
    List.fold_left
      (fun (t, d) ({ event; _ } : Recorder.entry) ->
        match event with
        | Tabs_tm.Paxos.Paxos_takeover _ -> (t + 1, d)
        | Tabs_tm.Paxos.Paxos_decided _ -> (t, d + 1)
        | _ -> (t, d))
      (0, 0) entries
  in
  Alcotest.(check bool) "takeover ballots ran" true (takeovers >= 1);
  Alcotest.(check bool) "decision reached" true (decisions >= 1);
  (* every survivor records the same outcome, and the replicated value
     agrees with it *)
  let outcomes =
    List.filter_map
      (fun node ->
        if Node.is_up node then
          List.find_map
            (fun ({ event; _ } : Recorder.entry) ->
              match event with
              | Tabs_tm.Txn_mgr.Txn_commit { node = n; _ }
                when n = Node.id node -> Some true
              | Tabs_tm.Txn_mgr.Txn_abort { node = n; _ }
                when n = Node.id node -> Some false
              | _ -> None)
            entries
        else None)
      (Cluster.nodes c)
  in
  let consistent =
    match outcomes with
    | [] -> true
    | o :: rest -> List.for_all (fun o' -> o' = o) rest
  in
  Alcotest.(check bool) "survivor outcomes consistent" true consistent;
  let expected = match outcomes with true :: _ -> 7 | _ -> 0 in
  List.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "node %d value matches outcome" node)
        expected
        (read_cell c arrays ~node))
    [ 0; 1; 2 ]

(* Progress with F failures: the coordinator AND one acceptor die, the
   remaining quorum of two (F+1) still resolves. *)
let test_takeover_with_f_acceptor_failures () =
  let c, arrays = make_cluster ~commit_protocol:paxos () in
  let n3 = Cluster.node c 3 in
  let tm = Node.tm n3 and rpc = Node.rpc n3 in
  Cluster.spawn c ~node:3 (fun () ->
      try
        ignore
          (Txn_lib.execute_transaction tm (fun tid ->
               write_everywhere tm rpc ~nodes:4 tid 11))
      with _ -> ());
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let rec watch () =
           Engine.delay 500;
           if Tabs_tm.Txn_mgr.in_doubt (Node.tm (Cluster.node c 0)) <> [] then begin
             Node.crash n3;
             Node.crash (Cluster.node c 1)
           end
           else watch ()
         in
         watch ()));
  Cluster.run_until c ~time:120_000_000;
  Alcotest.(check bool) "remaining nodes drained" true
    (Crash_harness.nothing_in_doubt (up_nodes c));
  Alcotest.(check bool) "locks released on remaining nodes" true
    (Crash_harness.no_locks_held [ List.nth arrays 0; List.nth arrays 2 ])

(* S1 regression: under 2PC with the coordinator gone for good, the
   resolver exhausts its status-query budget. That surrender used to be
   silent; it must now be observable in the trace stream, the
   engine-wide counter, and the per-TM count — with the transaction
   still in doubt and its locks still held (the blocking window is the
   point, not a thing to paper over). *)
let test_resolution_abandoned_is_observable () =
  let c, arrays = make_cluster ~commit_protocol:Tabs_tm.Commit_protocol.Two_phase ~nodes:2 () in
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.spawn c ~node:0 (fun () ->
      try
        ignore
          (Txn_lib.execute_transaction tm (fun tid ->
               write_everywhere tm rpc ~nodes:2 tid 3))
      with _ -> ());
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let rec watch () =
           Engine.delay 500;
           if Tabs_tm.Txn_mgr.in_doubt (Node.tm (Cluster.node c 1)) <> [] then
             Node.crash n0
           else watch ()
         in
         watch ()));
  let recorder = Recorder.attach (Cluster.engine c) in
  (* 100 attempts, 3 s apart, plus slack *)
  Cluster.run_until c ~time:400_000_000;
  let entries = Recorder.entries recorder in
  Recorder.detach recorder;
  let abandoned =
    List.exists
      (fun ({ event; _ } : Recorder.entry) ->
        match event with
        | Tabs_tm.Txn_mgr.Resolution_abandoned { node = 1; _ } -> true
        | _ -> false)
      entries
  in
  Alcotest.(check bool) "Resolution_abandoned emitted" true abandoned;
  Alcotest.(check bool) "engine-wide counter bumped" true
    ((Metrics.tm (Engine.metrics (Cluster.engine c))).Metrics.resolutions_abandoned
    >= 1);
  Alcotest.(check bool) "per-TM count surfaced" true
    (Tabs_tm.Txn_mgr.resolutions_abandoned (Node.tm (Cluster.node c 1)) >= 1);
  (* the bug being *reported*, not silently fixed: still blocked *)
  Alcotest.(check int) "still in doubt" 1
    (List.length (Tabs_tm.Txn_mgr.in_doubt (Node.tm (Cluster.node c 1))));
  Alcotest.(check bool) "locks still held" false
    (Crash_harness.no_locks_held [ List.nth arrays 1 ])

(* S2 regression: a coordinator that committed, crashed, and is
   restarting must not answer status queries from the middle of its log
   replay — "no record (yet)" is not "no transaction", and the old path
   would have answered presumed-abort and split a committed outcome.
   Hammer the restart window with queries to make the race certain. *)
let test_restart_window_status_query () =
  let c, arrays = make_cluster ~commit_protocol:Tabs_tm.Commit_protocol.Two_phase ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  let the_tid = ref None in
  Cluster.spawn c ~node:0 (fun () ->
      try
        ignore
          (Txn_lib.execute_transaction tm (fun tid ->
               the_tid := Some tid;
               write_everywhere tm rpc ~nodes:2 tid 8))
      with _ -> ());
  (* kill the coordinator the instant its commit record is down, before
     phase two reaches node 1: node 1 stays prepared in doubt *)
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let rec watch () =
           Engine.delay 100;
           match !the_tid with
           | Some tid
             when Tabs_tm.Txn_mgr.outcome_of (Node.tm n0) tid
                  = Some Tabs_tm.Txn_mgr.Committed ->
               Node.crash n0
           | _ -> watch ()
         in
         watch ()));
  Cluster.run_until c ~time:5_000_000;
  Alcotest.(check bool) "coordinator crashed post-decision" false
    (Node.is_up n0);
  Alcotest.(check int) "participant in doubt" 1
    (List.length (Tabs_tm.Txn_mgr.in_doubt (Node.tm n1)));
  let tid = Option.get !the_tid in
  (* flood the restart window: a query every 200 us from node 1 while
     node 0 rebuilds and replays *)
  ignore
    (Engine.spawn (Cluster.engine c) ~node:1 (fun () ->
         for _ = 1 to 200 do
           Engine.delay 200;
           Comm_mgr.send_datagram (Node.cm n1) ~dest:0
             (Tabs_tm.Txn_mgr.Tm_status_query tid)
         done));
  let holder = ref None in
  ignore
    (Cluster.run_fiber c ~node:0 (fun () ->
         Node.restart n0
           ~reinstall:(fun env ->
             holder :=
               Some
                 (Int_array_server.create env ~name:"a0" ~segment:1 ~cells:16 ()))
           ()));
  Cluster.run_until c ~time:(Engine.now (Cluster.engine c) + 60_000_000);
  (* the participant resolved to Committed — never to presumed abort *)
  Alcotest.(check bool) "participant learned Committed" true
    (Tabs_tm.Txn_mgr.outcome_of (Node.tm n1) tid
    = Some Tabs_tm.Txn_mgr.Committed);
  Alcotest.(check int) "drained" 0
    (List.length (Tabs_tm.Txn_mgr.in_doubt (Node.tm n1)));
  Alcotest.(check int) "committed value visible on node 1" 8
    (read_cell c arrays ~node:1)

(* With the protocol off nothing of Paxos exists on the wire or in the
   log: the 9-node healthy run above under Two_phase must emit zero
   Paxos trace events (the availability bench asserts the throughput
   side of this). *)
let test_two_phase_emits_no_paxos_events () =
  let c, _ = make_cluster ~commit_protocol:Tabs_tm.Commit_protocol.Two_phase () in
  let n3 = Cluster.node c 3 in
  let tm = Node.tm n3 and rpc = Node.rpc n3 in
  let recorder = Recorder.attach (Cluster.engine c) in
  ignore
    (Cluster.run_fiber c ~node:3 (fun () ->
         Txn_lib.execute_transaction tm (fun tid ->
             write_everywhere tm rpc ~nodes:4 tid 5)));
  let entries = Recorder.entries recorder in
  Recorder.detach recorder;
  Alcotest.(check bool) "no paxos events under 2PC" true
    (List.for_all
       (fun ({ event; _ } : Recorder.entry) ->
         match event with
         | Tabs_tm.Paxos.Paxos_vote_cast _ | Tabs_tm.Paxos.Paxos_accepted _
         | Tabs_tm.Paxos.Paxos_takeover _ | Tabs_tm.Paxos.Paxos_decided _ ->
             false
         | _ -> true)
       entries)

let suites =
  [
    ( "tm.paxos",
      [
        Alcotest.test_case "paxos commit healthy" `Quick
          test_paxos_commit_healthy;
        Alcotest.test_case "paxos abort releases" `Quick
          test_paxos_abort_releases;
        Alcotest.test_case "takeover releases in-doubt without restart" `Quick
          test_takeover_releases_in_doubt;
        Alcotest.test_case "progress with F acceptor failures" `Quick
          test_takeover_with_f_acceptor_failures;
        Alcotest.test_case "abandoned resolution is observable" `Quick
          test_resolution_abandoned_is_observable;
        Alcotest.test_case "restart window answers no status query" `Quick
          test_restart_window_status_query;
        Alcotest.test_case "2PC emits no paxos events" `Quick
          test_two_phase_emits_no_paxos_events;
      ] );
  ]
