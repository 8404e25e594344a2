(* Determinism goldens for the simulator core. Each scenario runs once
   and is compared with values pinned from history: an MD5 of the
   rendered trace JSONL, a metrics or recovery summary, the final
   virtual time and the engine event count. The scenarios exercise
   loss, retransmission, timeouts and distributed commit, a crash with
   a parallel restart, and an instant restart under traffic. Any change
   to event order, virtual time or metrics moves at least one value.
   A deliberate change re-pins by pasting the values a failure prints. *)

open Tabs_sim
open Tabs_net
open Tabs_core
open Tabs_servers
open Tabs_obs

type golden = { trace_md5 : string; summary : string; now : int; events : int }

let show g =
  Printf.sprintf "{ trace_md5 = %S; summary = %S; now = %d; events = %d }"
    g.trace_md5 g.summary g.now g.events

(* Detaches [recorder] and collects what a run is pinned by. *)
let observe recorder engine summary =
  let trace = List.map Jsonl.entry_to_json (Recorder.entries recorder) in
  Recorder.detach recorder;
  {
    trace_md5 = Digest.to_hex (Digest.string (String.concat "\n" trace));
    summary;
    now = Engine.now engine;
    events = Engine.events_processed engine;
  }

let check_golden name expected actual =
  if actual <> expected then
    Alcotest.failf "%s drifted from its golden\n  pinned: %s\n  actual: %s" name
      (show expected) (show actual)

(* One lossy-commit run; the summary is every metrics counter, down to
   the per-node rollup. *)
let fingerprint ?profile ?commit_protocol ~loss ~seed () =
  let c, _, recorder =
    Crash_harness.write_all_lossy ?profile ?commit_protocol ~loss ~seed ()
  in
  let engine = Cluster.engine c in
  Cluster.run_until c ~time:600_000_000;
  Network.set_loss (Cluster.network c) 0.0;
  Cluster.run c;
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
  observe recorder engine (Buffer.contents buf)

(* Values pinned at the last change to the core (trace MD5, summary,
   final virtual time, engine events). *)

let lossy_1 =
  {
    trace_md5 = "47f9e82ed9cfc0a913f8d7678dc5994e";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;Datagram=35.000/0.000;\
       Small Contiguous Message=141.000/0.000;\
       Large Contiguous Message=25.000/0.000;Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;Sequential Read=0.000/0.000;\
       Stable Storage Write=10.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=91 frames=91 piggy=0 delayed=0 covered=0 dup=4;abandoned=0;\
       n0:Data Server Call=5.000;n0:Inter-Node Data Server Call=10.000;\
       n0:Datagram=17.000;n0:Small Contiguous Message=67.000;\
       n0:Large Contiguous Message=9.000;\
       n0:Random Access Paged I/O=5.000;n0:Stable Storage Write=4.000;\
       n1:Datagram=7.000;n1:Small Contiguous Message=25.000;\
       n1:Large Contiguous Message=7.000;\
       n1:Random Access Paged I/O=1.000;n1:Stable Storage Write=2.000;\
       n2:Datagram=11.000;n2:Small Contiguous Message=31.000;\
       n2:Large Contiguous Message=9.000;\
       n2:Random Access Paged I/O=1.000;n2:Stable Storage Write=4.000;";
    now = 600_000_000;
    events = 483;
  }

let lossy_5 =
  {
    trace_md5 = "88fbde31f00c1f1f423b3e5748acd2f7";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;Datagram=35.000/0.000;\
       Small Contiguous Message=145.000/0.000;\
       Large Contiguous Message=28.000/0.000;Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;Sequential Read=0.000/0.000;\
       Stable Storage Write=13.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=102 frames=102 piggy=0 delayed=0 covered=0 dup=8;abandoned=0;\
       n0:Data Server Call=5.000;n0:Inter-Node Data Server Call=10.000;\
       n0:Datagram=17.000;n0:Small Contiguous Message=67.000;\
       n0:Large Contiguous Message=10.000;\
       n0:Random Access Paged I/O=5.000;n0:Stable Storage Write=5.000;\
       n1:Datagram=9.000;n1:Small Contiguous Message=30.000;\
       n1:Large Contiguous Message=9.000;\
       n1:Random Access Paged I/O=1.000;n1:Stable Storage Write=4.000;\
       n2:Datagram=9.000;n2:Small Contiguous Message=30.000;\
       n2:Large Contiguous Message=9.000;\
       n2:Random Access Paged I/O=1.000;n2:Stable Storage Write=4.000;";
    now = 600_000_000;
    events = 517;
  }

let lossy_9 =
  {
    trace_md5 = "e18b979bf8f9d2cbb09fe0e9f3fb0744";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;Datagram=41.000/0.000;\
       Small Contiguous Message=147.000/0.000;\
       Large Contiguous Message=27.000/0.000;Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;Sequential Read=0.000/0.000;\
       Stable Storage Write=12.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=94 frames=94 piggy=0 delayed=0 covered=0 dup=3;abandoned=0;\
       n0:Data Server Call=5.000;n0:Inter-Node Data Server Call=10.000;\
       n0:Datagram=18.000;n0:Small Contiguous Message=67.000;\
       n0:Large Contiguous Message=9.000;\
       n0:Random Access Paged I/O=5.000;n0:Stable Storage Write=4.000;\
       n1:Datagram=14.000;n1:Small Contiguous Message=31.000;\
       n1:Large Contiguous Message=9.000;\
       n1:Random Access Paged I/O=1.000;n1:Stable Storage Write=4.000;\
       n2:Datagram=9.000;n2:Small Contiguous Message=31.000;\
       n2:Large Contiguous Message=9.000;\
       n2:Random Access Paged I/O=1.000;n2:Stable Storage Write=4.000;";
    now = 600_000_000;
    events = 510;
  }

let clean_3 =
  {
    trace_md5 = "1aa12dac5fe12d6c6f5bb39ee9a1aa10";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;Datagram=35.000/0.000;\
       Small Contiguous Message=145.000/0.000;\
       Large Contiguous Message=30.000/0.000;Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;Sequential Read=0.000/0.000;\
       Stable Storage Write=15.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=80 frames=80 piggy=0 delayed=0 covered=0 dup=0;abandoned=0;\
       n0:Data Server Call=5.000;n0:Inter-Node Data Server Call=10.000;\
       n0:Datagram=15.000;n0:Small Contiguous Message=67.000;\
       n0:Large Contiguous Message=10.000;\
       n0:Random Access Paged I/O=5.000;n0:Stable Storage Write=5.000;\
       n1:Datagram=10.000;n1:Small Contiguous Message=30.000;\
       n1:Large Contiguous Message=10.000;\
       n1:Random Access Paged I/O=1.000;n1:Stable Storage Write=5.000;\
       n2:Datagram=10.000;n2:Small Contiguous Message=30.000;\
       n2:Large Contiguous Message=10.000;\
       n2:Random Access Paged I/O=1.000;n2:Stable Storage Write=5.000;";
    now = 600_000_000;
    events = 504;
  }

let paxos_1 =
  {
    trace_md5 = "3694e038b4dc5b1a0f148f998e40765d";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;\
       Datagram=209.000/0.000;\
       Small Contiguous Message=256.000/0.000;\
       Large Contiguous Message=123.000/0.000;\
       Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;\
       Sequential Read=0.000/0.000;\
       Stable Storage Write=108.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=320 frames=320 piggy=0 delayed=0 covered=0 dup=6;\
       abandoned=0;n0:Data Server Call=5.000;\
       n0:Inter-Node Data Server Call=10.000;n0:Datagram=110.500;\
       n0:Small Contiguous Message=113.000;\
       n0:Large Contiguous Message=46.000;\
       n0:Random Access Paged I/O=5.000;\
       n0:Stable Storage Write=41.000;n1:Datagram=59.500;\
       n1:Small Contiguous Message=68.000;\
       n1:Large Contiguous Message=43.000;\
       n1:Random Access Paged I/O=1.000;\
       n1:Stable Storage Write=38.000;n2:Datagram=39.000;\
       n2:Small Contiguous Message=57.000;\
       n2:Large Contiguous Message=34.000;\
       n2:Random Access Paged I/O=1.000;\
       n2:Stable Storage Write=29.000;";
    now = 600_000_000;
    events = 1461;
  }

let paxos_5 =
  {
    trace_md5 = "ec737692da10b75a856e5a7d534760a1";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;\
       Datagram=236.500/0.000;\
       Small Contiguous Message=273.000/0.000;\
       Large Contiguous Message=138.000/0.000;\
       Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;\
       Sequential Read=0.000/0.000;\
       Stable Storage Write=123.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=364 frames=364 piggy=0 delayed=0 covered=0 dup=8;\
       abandoned=0;n0:Data Server Call=5.000;\
       n0:Inter-Node Data Server Call=10.000;n0:Datagram=116.500;\
       n0:Small Contiguous Message=112.000;\
       n0:Large Contiguous Message=45.000;\
       n0:Random Access Paged I/O=5.000;\
       n0:Stable Storage Write=40.000;n1:Datagram=61.000;\
       n1:Small Contiguous Message=69.000;\
       n1:Large Contiguous Message=43.000;\
       n1:Random Access Paged I/O=1.000;\
       n1:Stable Storage Write=38.000;n2:Datagram=59.000;\
       n2:Small Contiguous Message=74.000;\
       n2:Large Contiguous Message=50.000;\
       n2:Random Access Paged I/O=1.000;\
       n2:Stable Storage Write=45.000;";
    now = 600_000_000;
    events = 1670;
  }

let paxos_9 =
  {
    trace_md5 = "094db4ae0e8cf20a89b42a757151cc80";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;\
       Datagram=221.500/0.000;\
       Small Contiguous Message=274.000/0.000;\
       Large Contiguous Message=139.000/0.000;\
       Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;\
       Sequential Read=0.000/0.000;\
       Stable Storage Write=124.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=336 frames=336 piggy=0 delayed=0 covered=0 dup=7;\
       abandoned=0;n0:Data Server Call=5.000;\
       n0:Inter-Node Data Server Call=10.000;n0:Datagram=110.000;\
       n0:Small Contiguous Message=112.000;\
       n0:Large Contiguous Message=45.000;\
       n0:Random Access Paged I/O=5.000;\
       n0:Stable Storage Write=40.000;n1:Datagram=53.500;\
       n1:Small Contiguous Message=72.000;\
       n1:Large Contiguous Message=48.000;\
       n1:Random Access Paged I/O=1.000;\
       n1:Stable Storage Write=43.000;n2:Datagram=58.000;\
       n2:Small Contiguous Message=72.000;\
       n2:Large Contiguous Message=46.000;\
       n2:Random Access Paged I/O=1.000;\
       n2:Stable Storage Write=41.000;";
    now = 600_000_000;
    events = 1587;
  }

let integrated_1 =
  {
    trace_md5 = "15f63cf3bbe143e592ee19e1fafe7358";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;\
       Datagram=35.000/0.000;\
       Small Contiguous Message=99.000/43.000;\
       Large Contiguous Message=25.000/0.000;\
       Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;\
       Sequential Read=0.000/0.000;\
       Stable Storage Write=10.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=91 frames=91 piggy=0 delayed=0 covered=0 dup=4;\
       abandoned=0;n0:Data Server Call=5.000;\
       n0:Inter-Node Data Server Call=10.000;n0:Datagram=17.000;\
       n0:Small Contiguous Message=44.000;\
       n0:Large Contiguous Message=9.000;\
       n0:Random Access Paged I/O=5.000;\
       n0:Stable Storage Write=4.000;n1:Datagram=7.000;\
       n1:Small Contiguous Message=18.000;\
       n1:Large Contiguous Message=7.000;\
       n1:Random Access Paged I/O=1.000;\
       n1:Stable Storage Write=2.000;n2:Datagram=11.000;\
       n2:Small Contiguous Message=22.000;\
       n2:Large Contiguous Message=9.000;\
       n2:Random Access Paged I/O=1.000;\
       n2:Stable Storage Write=4.000;";
    now = 600_000_000;
    events = 445;
  }

let integrated_5 =
  {
    trace_md5 = "11a1054ca1495087a34d699e4d0a9f16";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;\
       Datagram=35.000/0.000;\
       Small Contiguous Message=100.000/46.000;\
       Large Contiguous Message=28.000/0.000;\
       Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;\
       Sequential Read=0.000/0.000;\
       Stable Storage Write=13.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=102 frames=102 piggy=0 delayed=0 covered=0 dup=8;\
       abandoned=0;n0:Data Server Call=5.000;\
       n0:Inter-Node Data Server Call=10.000;n0:Datagram=17.000;\
       n0:Small Contiguous Message=43.000;\
       n0:Large Contiguous Message=10.000;\
       n0:Random Access Paged I/O=5.000;\
       n0:Stable Storage Write=5.000;n1:Datagram=9.000;\
       n1:Small Contiguous Message=21.000;\
       n1:Large Contiguous Message=9.000;\
       n1:Random Access Paged I/O=1.000;\
       n1:Stable Storage Write=4.000;n2:Datagram=9.000;\
       n2:Small Contiguous Message=21.000;\
       n2:Large Contiguous Message=9.000;\
       n2:Random Access Paged I/O=1.000;\
       n2:Stable Storage Write=4.000;";
    now = 600_000_000;
    events = 477;
  }

let integrated_9 =
  {
    trace_md5 = "11ffce127566511d264c604aef80dd79";
    summary =
      "Data Server Call=5.000/0.000;\
       Inter-Node Data Server Call=10.000/0.000;\
       Datagram=41.000/0.000;\
       Small Contiguous Message=103.000/45.000;\
       Large Contiguous Message=27.000/0.000;\
       Pointer Message=0.000/0.000;\
       Random Access Paged I/O=7.000/0.000;\
       Sequential Read=0.000/0.000;\
       Stable Storage Write=12.000/0.000;\
       Coalesced Extra Frame=0.000/0.000;\
       wire=94 frames=94 piggy=0 delayed=0 covered=0 dup=3;\
       abandoned=0;n0:Data Server Call=5.000;\
       n0:Inter-Node Data Server Call=10.000;n0:Datagram=18.000;\
       n0:Small Contiguous Message=44.000;\
       n0:Large Contiguous Message=9.000;\
       n0:Random Access Paged I/O=5.000;\
       n0:Stable Storage Write=4.000;n1:Datagram=14.000;\
       n1:Small Contiguous Message=22.000;\
       n1:Large Contiguous Message=9.000;\
       n1:Random Access Paged I/O=1.000;\
       n1:Stable Storage Write=4.000;n2:Datagram=9.000;\
       n2:Small Contiguous Message=22.000;\
       n2:Large Contiguous Message=9.000;\
       n2:Random Access Paged I/O=1.000;\
       n2:Stable Storage Write=4.000;";
    now = 600_000_000;
    events = 470;
  }

let parallel_2 =
  {
    trace_md5 = "5896420ae4eee0e165104c78730e0858";
    summary = "scanned=13 losers=0 replay=32000 graph=0/5/4/5/1";
    now = 662_400;
    events = 103;
  }

let parallel_7 =
  {
    trace_md5 = "5511b433026bb5e869b7ba50d59ed1f5";
    summary = "scanned=20 losers=1 replay=32000 graph=0/11/10/11/1";
    now = 946_800;
    events = 142;
  }

let instant_2 =
  {
    trace_md5 = "aef58426698468d5668e703e98ec3ceb";
    summary = "scanned=4 losers=0 open_early=true tto=16000 pages=0/0/1/0";
    now = 2_162_038;
    events = 406;
  }

let instant_7 =
  {
    trace_md5 = "47136af0da307382df9f5dd623ef9fb0";
    summary = "scanned=7 losers=0 open_early=true tto=16000 pages=0/0/1/0";
    now = 4_276_148;
    events = 449;
  }

let test_lossy_goldens () =
  List.iter
    (fun (seed, g) ->
      check_golden (Printf.sprintf "lossy seed %d" seed) g
        (fingerprint ~loss:0.20 ~seed ()))
    [ (1, lossy_1); (5, lossy_5); (9, lossy_9) ]

let test_clean_golden () =
  check_golden "clean seed 3" clean_3 (fingerprint ~loss:0.0 ~seed:3 ())

(* The same lossy runs under the two commit variants the 2PC rows do not
   reach: Paxos Commit (root prepare forced, commit record unforced,
   quorum-decided) and the Integrated profile (phase two in a background
   fiber). *)
let test_paxos_goldens () =
  List.iter
    (fun (seed, g) ->
      check_golden (Printf.sprintf "paxos lossy seed %d" seed) g
        (fingerprint ~commit_protocol:(Tabs_tm.Commit_protocol.Paxos { f = 1 })
           ~loss:0.20 ~seed ()))
    [ (1, paxos_1); (5, paxos_5); (9, paxos_9) ]

let test_integrated_goldens () =
  List.iter
    (fun (seed, g) ->
      check_golden (Printf.sprintf "integrated lossy seed %d" seed) g
        (fingerprint ~profile:Profile.Integrated ~loss:0.20 ~seed ()))
    [ (1, integrated_1); (5, integrated_5); (9, integrated_9) ]

let lcg seed =
  let s = ref seed in
  fun n ->
    s := Crash_harness.next_rand !s;
    !s mod n

(* A crash and a parallel restart: the summary carries
   the redo-graph shape and the replay time. *)
let recovery_fingerprint ~seed =
  let cells = 64 in
  let c =
    Cluster.create ~nodes:1 ~seed ~parallel_recovery:4 ()
  in
  let node = Cluster.node c 0 in
  let arr =
    Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells ()
  in
  let engine = Cluster.engine c in
  let recorder = Recorder.attach engine in
  (* two writers updating random cells of [arr] forever *)
  Crash_harness.spawn_writers c ~tm:(Node.tm node) ~seed ~writers:2
    ~think:2_000 (fun rand tid ->
      Int_array_server.set arr tid (rand cells) (rand 1000));
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
  let summary =
    let open Tabs_recovery in
    Printf.sprintf "scanned=%d losers=%d replay=%d graph=%s"
      outcome.Recovery_mgr.records_scanned
      (List.length outcome.Recovery_mgr.losers)
      outcome.Recovery_mgr.replay_us
      (let g = outcome.Recovery_mgr.graph in
       Printf.sprintf "%d/%d/%d/%d/%d" g.Parallel_redo.op_records
         g.Parallel_redo.value_records g.Parallel_redo.chain_edges
         g.Parallel_redo.critical_path g.Parallel_redo.width)
  in
  observe recorder engine summary

(* An instant restart — open after analysis, chains replayed on first
   touch and by the trickle, under post-restart traffic. The summary
   carries the page counters and the time to open. *)
let instant_fingerprint ~seed =
  let cells = 64 in
  let c =
    Cluster.create ~nodes:1 ~seed ~parallel_recovery:4 ~instant_restart:true
      ~checkpointing:50_000 ()
  in
  let node = Cluster.node c 0 in
  let arr =
    Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells ()
  in
  let engine = Cluster.engine c in
  let recorder = Recorder.attach engine in
  (* two writers updating random cells of [arr] forever *)
  Crash_harness.spawn_writers c ~tm:(Node.tm node) ~seed ~writers:2
    ~think:2_000 (fun rand tid ->
      Int_array_server.set arr tid (rand cells) (rand 1000));
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
            let rand = lcg (seed + 13) in
            let tm' = Node.tm node in
            for _ = 1 to 20 do
              (try
                 Txn_lib.execute_transaction tm' (fun tid ->
                     Int_array_server.set arr tid (rand cells) (rand 1000))
               with
              | Errors.Transaction_is_aborted _ | Errors.Lock_timeout _ ->
                  ());
              Engine.delay (1 + rand 500)
            done);
        o)
  in
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
  observe recorder engine summary

let test_recovery_goldens () =
  List.iter
    (fun (seed, g) ->
      check_golden (Printf.sprintf "parallel restart seed %d" seed) g
        (recovery_fingerprint ~seed))
    [ (2, parallel_2); (7, parallel_7) ]

let test_instant_goldens () =
  List.iter
    (fun (seed, g) ->
      check_golden (Printf.sprintf "instant restart seed %d" seed) g
        (instant_fingerprint ~seed))
    [ (2, instant_2); (7, instant_7) ]

let quick name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "sim.determinism",
      [
        quick "lossy commit goldens" test_lossy_goldens;
        quick "clean run golden" test_clean_golden;
        quick "paxos lossy commit goldens" test_paxos_goldens;
        quick "integrated lossy commit goldens" test_integrated_goldens;
        quick "parallel restart goldens" test_recovery_goldens;
        quick "instant restart goldens" test_instant_goldens;
      ] );
  ]
