(* Determinism guard for the PR 8 simulator-core rewrite: the optimized
   core ([Sim_profile] fast mode — two-tier event queue, O(1) metrics
   index, epoch arrays, ring wait queues, cached fiber node) and the
   seed baseline mode must be observationally indistinguishable. Same
   seed, same workload => byte-identical rendered trace JSONL, equal
   metrics down to the per-node rollup, equal final virtual time and
   equal event count — on a workload that exercises loss,
   retransmission, timeouts and distributed commit. *)

open Tabs_sim
open Tabs_net
open Tabs_core
open Tabs_servers
open Tabs_obs

let nodes = 3

let txns = 5

let server_name dest = Printf.sprintf "a%d" dest

(* One lossy-commit run; returns every observable artifact rendered to
   strings so the two modes can be compared byte-for-byte. *)
let fingerprint ~loss ~seed () =
  let c = Cluster.create ~nodes ~seed () in
  List.iter
    (fun node ->
      ignore
        (Int_array_server.create (Node.env node)
           ~name:(server_name (Node.id node))
           ~segment:1 ~cells:16 ()))
    (Cluster.nodes c);
  let engine = Cluster.engine c in
  let recorder = Recorder.attach engine in
  Network.set_loss (Cluster.network c) loss;
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.spawn c ~node:0 (fun () ->
      for i = 0 to txns - 1 do
        try
          Txn_lib.execute_transaction tm (fun tid ->
              for dest = 0 to nodes - 1 do
                Int_array_server.call_set rpc ~dest ~server:(server_name dest)
                  tid i (100 + i)
              done)
        with
        | Errors.Lock_timeout _ | Errors.Deadlock _
        | Errors.Transaction_is_aborted _
        | Rpc.Rpc_timeout _ ->
            ()
      done);
  Cluster.run_until c ~time:600_000_000;
  Network.set_loss (Cluster.network c) 0.0;
  Cluster.run c;
  let trace = List.map Jsonl.entry_to_json (Recorder.entries recorder) in
  Recorder.detach recorder;
  let m = Engine.metrics engine in
  let buf = Buffer.create 512 in
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s=%.3f/%.3f;" (Cost_model.name p) (Metrics.weight m p)
           (Metrics.elided_weight m p)))
    Cost_model.all;
  let msgs = Metrics.msgs m in
  Buffer.add_string buf
    (Printf.sprintf "wire=%d frames=%d piggy=%d delayed=%d covered=%d dup=%d;"
       msgs.Metrics.wire_messages msgs.Metrics.carried_frames
       msgs.Metrics.piggybacked_acks msgs.Metrics.delayed_acks
       msgs.Metrics.ack_deliveries_covered msgs.Metrics.duplicate_reacks);
  Buffer.add_string buf
    (Printf.sprintf "abandoned=%d;" (Metrics.tm m).Metrics.resolutions_abandoned);
  List.iter
    (fun node ->
      List.iter
        (fun p ->
          let w = Metrics.node_weight m ~node p in
          if w > 0. then
            Buffer.add_string buf
              (Printf.sprintf "n%d:%s=%.3f;" node (Cost_model.name p) w))
        Cost_model.all)
    (Metrics.nodes_tracked m);
  (trace, Buffer.contents buf, Engine.now engine, Engine.events_processed engine)

let check_same ~loss ~seed =
  let fast = Sim_profile.with_baseline false (fingerprint ~loss ~seed) in
  let base = Sim_profile.with_baseline true (fingerprint ~loss ~seed) in
  let trace_f, metrics_f, now_f, events_f = fast in
  let trace_b, metrics_b, now_b, events_b = base in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: trace length" seed)
    (List.length trace_b) (List.length trace_f);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "seed %d: trace line %d differs:\n  fast: %s\n  base: %s"
          seed i a b)
    (List.combine trace_f trace_b);
  Alcotest.(check string)
    (Printf.sprintf "seed %d: metrics fingerprint" seed)
    metrics_b metrics_f;
  Alcotest.(check int) (Printf.sprintf "seed %d: final now" seed) now_b now_f;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: events processed" seed)
    events_b events_f

let test_lossy_identical () =
  List.iter (fun seed -> check_same ~loss:0.20 ~seed) [ 1; 5; 9 ]

let test_lossless_identical () = check_same ~loss:0.0 ~seed:3

(* A crash and dependency-logged parallel restart must also be
   mode-independent: same trace, same metrics, same redo-graph shape,
   same replay time under the fast core and the seed baseline. *)
let recovery_fingerprint ~seed () =
  let cells = 64 in
  let c =
    Cluster.create ~nodes:1 ~seed
      ~parallel_recovery:{ Tabs_recovery.Parallel_redo.fibers = 4 }
      ()
  in
  let node = Cluster.node c 0 in
  let arr =
    Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells ()
  in
  let engine = Cluster.engine c in
  let recorder = Recorder.attach engine in
  let tm = Node.tm node in
  for w = 0 to 1 do
    Cluster.spawn c ~node:0 (fun () ->
        let s = ref (seed + (w * 7919) + 1) in
        let rand n =
          s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
          !s mod n
        in
        while true do
          (try
             Txn_lib.execute_transaction tm (fun tid ->
                 for _ = 0 to rand 3 do
                   Int_array_server.set arr tid (rand cells) (rand 1000)
                 done)
           with
          | Errors.Transaction_is_aborted _ | Errors.Deadlock _
          | Errors.Lock_timeout _ ->
              ());
          Engine.delay (1 + rand 2_000)
        done)
  done;
  Cluster.run_until c ~time:(400_000 + (seed * 37_000));
  Node.crash node;
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        Node.restart node
          ~reinstall:(fun env ->
            ignore
              (Int_array_server.create env ~name:"a" ~segment:1 ~cells ()))
          ())
  in
  let trace = List.map Jsonl.entry_to_json (Recorder.entries recorder) in
  Recorder.detach recorder;
  let summary =
    let open Tabs_recovery in
    Printf.sprintf "scanned=%d losers=%d replay=%d graph=%s"
      outcome.Recovery_mgr.records_scanned
      (List.length outcome.Recovery_mgr.losers)
      outcome.Recovery_mgr.replay_us
      (let g = outcome.Recovery_mgr.graph in
       Printf.sprintf "%d/%d/%d/%d/%d/%d" g.Parallel_redo.op_records
         g.Parallel_redo.value_records g.Parallel_redo.chain_edges
         g.Parallel_redo.dep_edges g.Parallel_redo.critical_path
         g.Parallel_redo.width)
  in
  (trace, summary, Engine.now engine, Engine.events_processed engine)

(* An instant restart — open after analysis, chains replayed on first
   touch and by the trickle, under post-restart traffic — must also be
   mode-independent: same trace (including the ondemand_redo events),
   same page counters, same time-to-open. *)
let instant_fingerprint ~seed () =
  let cells = 64 in
  let c =
    Cluster.create ~nodes:1 ~seed
      ~parallel_recovery:{ Tabs_recovery.Parallel_redo.fibers = 4 }
      ~instant_restart:true
      ~checkpointing:{ Tabs_recovery.Checkpointer.interval = 50_000; trickle = 4 }
      ()
  in
  let node = Cluster.node c 0 in
  let arr =
    Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells ()
  in
  ignore arr;
  let engine = Cluster.engine c in
  let recorder = Recorder.attach engine in
  let tm = Node.tm node in
  for w = 0 to 1 do
    Cluster.spawn c ~node:0 (fun () ->
        let s = ref (seed + (w * 7919) + 1) in
        let rand n =
          s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
          !s mod n
        in
        while true do
          (try
             Txn_lib.execute_transaction tm (fun tid ->
                 for _ = 0 to rand 3 do
                   Int_array_server.set arr tid (rand cells) (rand 1000)
                 done)
           with
          | Errors.Transaction_is_aborted _ | Errors.Deadlock _
          | Errors.Lock_timeout _ ->
              ());
          Engine.delay (1 + rand 2_000)
        done)
  done;
  Cluster.run_until c ~time:(400_000 + (seed * 37_000));
  Node.crash node;
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        let o =
          Node.restart node
            ~reinstall:(fun env ->
              ignore
                (Int_array_server.create env ~name:"a" ~segment:1 ~cells ()))
            ()
        in
        (* post-restart traffic races the trickle: some chains drain on
           first touch, the rest in the background *)
        Cluster.spawn c ~node:0 (fun () ->
            let s = ref (seed + 13) in
            let rand n =
              s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
              !s mod n
            in
            let tm' = Node.tm node in
            for _ = 1 to 20 do
              (try
                 Txn_lib.execute_transaction tm' (fun tid ->
                     Int_array_server.set arr tid (rand cells) (rand 1000))
               with
              | Errors.Transaction_is_aborted _ | Errors.Deadlock _
              | Errors.Lock_timeout _ ->
                  ());
              Engine.delay (1 + rand 500)
            done);
        o)
  in
  let trace = List.map Jsonl.entry_to_json (Recorder.entries recorder) in
  Recorder.detach recorder;
  let summary =
    let open Tabs_recovery in
    let m = Metrics.recovery (Engine.metrics engine) ~node:0 in
    Printf.sprintf
      "scanned=%d losers=%d open_early=%b tto=%d pages=%d/%d/%d/%d"
      outcome.Recovery_mgr.records_scanned
      (List.length outcome.Recovery_mgr.losers)
      outcome.Recovery_mgr.open_early outcome.Recovery_mgr.time_to_open_us
      m.Metrics.restart_pages m.Metrics.ondemand_pages
      m.Metrics.trickle_pages m.Metrics.pending_pages
  in
  (trace, summary, Engine.now engine, Engine.events_processed engine)

let compare_fingerprints ~what ~seed fast base =
  let trace_f, summary_f, now_f, events_f = fast in
  let trace_b, summary_b, now_b, events_b = base in
  Alcotest.(check string)
    (Printf.sprintf "seed %d: %s summary" seed what)
    summary_b summary_f;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: trace length" seed)
    (List.length trace_b) (List.length trace_f);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "seed %d: trace line %d differs:\n  fast: %s\n  base: %s"
          seed i a b)
    (List.combine trace_f trace_b);
  Alcotest.(check int) (Printf.sprintf "seed %d: final now" seed) now_b now_f;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: events processed" seed)
    events_b events_f

let test_instant_identical () =
  List.iter
    (fun seed ->
      compare_fingerprints ~what:"instant restart" ~seed
        (Sim_profile.with_baseline false (instant_fingerprint ~seed))
        (Sim_profile.with_baseline true (instant_fingerprint ~seed)))
    [ 2; 7 ]

let test_recovery_identical () =
  List.iter
    (fun seed ->
      let fast = Sim_profile.with_baseline false (recovery_fingerprint ~seed) in
      let base = Sim_profile.with_baseline true (recovery_fingerprint ~seed) in
      let trace_f, summary_f, now_f, events_f = fast in
      let trace_b, summary_b, now_b, events_b = base in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: recovery summary" seed)
        summary_b summary_f;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: trace length" seed)
        (List.length trace_b) (List.length trace_f);
      List.iteri
        (fun i (a, b) ->
          if a <> b then
            Alcotest.failf
              "seed %d: trace line %d differs:\n  fast: %s\n  base: %s" seed i
              a b)
        (List.combine trace_f trace_b);
      Alcotest.(check int) (Printf.sprintf "seed %d: final now" seed) now_b
        now_f;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: events processed" seed)
        events_b events_f)
    [ 2; 7 ]

let quick name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "sim.determinism",
      [
        quick "fast = baseline on lossy distributed commit"
          test_lossy_identical;
        quick "fast = baseline on clean run" test_lossless_identical;
        quick "fast = baseline on crash and parallel restart"
          test_recovery_identical;
        quick "fast = baseline on instant restart under traffic"
          test_instant_identical;
      ] );
  ]
