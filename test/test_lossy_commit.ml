(* Property test: distributed commits over a lossy datagram network.

   Three nodes, every transaction writes on all three (so the read-only
   vote optimization cannot apply and strict outcome convergence must
   hold), with 5% or 20% of transmissions dropped. Whatever mix of
   retransmission, time-out aborts, and in-doubt resolution results, the
   cluster must converge: every node that records an outcome for a
   transaction records the same outcome, the replicated cells agree,
   no transaction is left in doubt, and no locks leak. *)

open Tabs_net
open Tabs_core
open Tabs_servers
open Tabs_obs

let run_case ?comm_batching ?commit_protocol ~loss ~seed () =
  let c, arrays, recorder =
    Crash_harness.write_all_lossy ?comm_batching ?commit_protocol ~loss ~seed ()
  in
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.run_until c ~time:600_000_000;
  (* heal the network and drain retransmissions and the in-doubt
     resolver to quiescence *)
  Network.set_loss (Cluster.network c) 0.0;
  Cluster.run c;
  let entries = Recorder.entries recorder in
  Recorder.detach recorder;
  (* 1. trace-stream convergence: no transaction has a commit on one
     node and an abort on another *)
  let converged = Crash_harness.outcomes_agree entries in
  (* 2. replica convergence: each written cell reads the same on every
     node *)
  let replicas_agree =
    Cluster.run_fiber c ~node:0 (fun () ->
        List.for_all
          (fun i ->
            Txn_lib.execute_transaction tm (fun tid ->
                let vs =
                  List.init Crash_harness.lossy_nodes (fun dest ->
                      Int_array_server.call_get rpc ~dest
                        ~server:(Crash_harness.array_name dest) tid i)
                in
                match vs with
                | v :: rest -> List.for_all (fun v' -> v' = v) rest
                | [] -> true))
          (List.init Crash_harness.lossy_txns Fun.id))
  in
  (* 3. nothing left behind: no in-doubt transactions, no held locks *)
  let nothing_in_doubt = Crash_harness.nothing_in_doubt (Cluster.nodes c) in
  let spans_balanced = Span.balanced (Span.of_entries entries) in
  let no_leaked_locks = Crash_harness.no_locks_held arrays in
  converged && replicas_agree && nothing_in_doubt && spans_balanced
  && no_leaked_locks

let prop_lossy_convergence =
  QCheck.Test.make
    ~name:"distributed commits converge under 5% and 20% datagram loss"
    ~count:8
    QCheck.(pair bool small_int)
    (fun (heavy, seed) ->
      run_case ~loss:(if heavy then 0.20 else 0.05) ~seed:(seed + 1) ())

(* The same property with the comm-batching layer on: coalesced
   datagrams and delayed/piggybacked acks must not change any outcome,
   leak a lock, or leave anything in doubt, even when whole multi-frame
   wire messages are dropped. *)
let prop_lossy_convergence_with_batching =
  QCheck.Test.make
    ~name:"batched comm converges under 5% and 20% datagram loss"
    ~count:8
    QCheck.(pair bool small_int)
    (fun (heavy, seed) ->
      run_case ~comm_batching:Comm_mgr.default_batching
        ~loss:(if heavy then 0.20 else 0.05)
        ~seed:(seed + 1) ())

(* Coordinator crash at a protocol step chosen by qcheck: node 3
   coordinates transactions writing on all four nodes and is killed
   [offset] microseconds into the run — anywhere from mid-spread,
   through the vote phase, to after its decision. Under Two_phase the
   prepared survivors block until the coordinator restarts; under Paxos
   the acceptors (nodes 0-2) must resolve them with the coordinator
   still down. In both cases, after an optional restart and a healing
   period, the cluster must fully converge: consistent outcomes, equal
   replicas, nothing in doubt, zero held locks. *)
let run_crash_case ?commit_protocol ~offset ~restart ~seed () =
  let crash_nodes = 4 in
  let c = Cluster.create ~nodes:crash_nodes ~seed ?commit_protocol () in
  let holders =
    Array.map
      (fun node ->
        ref
          (Int_array_server.create (Node.env node)
             ~name:(Crash_harness.array_name (Node.id node))
             ~segment:1 ~cells:16 ()))
      (Array.of_list (Cluster.nodes c))
  in
  let recorder = Recorder.attach (Cluster.engine c) in
  let n3 = Cluster.node c 3 in
  Crash_harness.spawn_write_all c ~node:3 ~txns:3 ~base:200;
  ignore
    (Tabs_sim.Engine.spawn (Cluster.engine c) (fun () ->
         Tabs_sim.Engine.delay offset;
         if Node.is_up n3 then Node.crash n3));
  (* long enough for Paxos takeover (or 2PC blocking) to play out *)
  Cluster.run_until c ~time:60_000_000;
  let survivors_drained =
    Crash_harness.nothing_in_doubt (List.filter Node.is_up (Cluster.nodes c))
  in
  if restart then
    ignore
      (Cluster.run_fiber c ~node:3 (fun () ->
           Node.restart n3
             ~reinstall:(fun env ->
               holders.(3) :=
                 Int_array_server.create env ~name:(Crash_harness.array_name 3) ~segment:1
                   ~cells:16 ())
             ~after_recovery:(fun outcome ->
               Server_lib.relock_in_doubt
                 (Int_array_server.server !(holders.(3)))
                 outcome.Tabs_recovery.Recovery_mgr.written_objects)
             ()));
  Cluster.run_until c ~time:(Tabs_sim.Engine.now (Cluster.engine c) + 600_000_000);
  let entries = Recorder.entries recorder in
  Recorder.detach recorder;
  (* consistent outcomes in the trace stream; the crash wiped node 3's
     volatile state, so losers rolled back at restart are legitimate
     aborts, recorded like others *)
  let converged = Crash_harness.outcomes_agree entries in
  (* replicas agree, in-doubt drained, no locks held — on up nodes *)
  let up = List.filter Node.is_up (Cluster.nodes c) in
  let replicas_agree =
    List.for_all
      (fun i ->
        let vs =
          List.map
            (fun node ->
              Cluster.run_fiber c ~node:(Node.id node) (fun () ->
                  Txn_lib.execute_transaction (Node.tm node) (fun tid ->
                      Int_array_server.get !(holders.(Node.id node)) tid i)))
            up
        in
        match vs with
        | v :: rest -> List.for_all (fun v' -> v' = v) rest
        | [] -> true)
      [ 0; 1; 2 ]
  in
  let nothing_in_doubt = Crash_harness.nothing_in_doubt up in
  let no_leaked_locks =
    Crash_harness.no_locks_held
      (List.map (fun node -> !(holders.(Node.id node))) up)
  in
  (* under Paxos the survivors must have been clean BEFORE any restart *)
  let non_blocking_held =
    match commit_protocol with
    | Some (Tabs_tm.Commit_protocol.Paxos _) -> survivors_drained
    | _ -> true
  in
  converged && replicas_agree && nothing_in_doubt && no_leaked_locks
  && non_blocking_held

let crash_offset seed = 2_000 + (seed * 7919 mod 120_000)

let prop_crash_coordinator_2pc =
  QCheck.Test.make
    ~name:"2PC converges after coordinator crash + restart (any step)"
    ~count:10 QCheck.small_int
    (fun seed ->
      run_crash_case
        ~commit_protocol:Tabs_tm.Commit_protocol.Two_phase
        ~offset:(crash_offset seed) ~restart:true ~seed:(seed + 1) ())

let prop_crash_coordinator_paxos =
  QCheck.Test.make
    ~name:"Paxos converges after coordinator crash + restart (any step)"
    ~count:10 QCheck.small_int
    (fun seed ->
      run_crash_case
        ~commit_protocol:(Tabs_tm.Commit_protocol.Paxos { f = 1 })
        ~offset:(crash_offset seed) ~restart:true ~seed:(seed + 1) ())

let prop_crash_coordinator_paxos_no_restart =
  QCheck.Test.make
    ~name:"Paxos drains in-doubt with the coordinator never restarted"
    ~count:10 QCheck.small_int
    (fun seed ->
      run_crash_case
        ~commit_protocol:(Tabs_tm.Commit_protocol.Paxos { f = 1 })
        ~offset:(crash_offset (seed + 13)) ~restart:false ~seed:(seed + 1) ())

(* Paxos under datagram loss: same convergence property as the 2PC
   version above, exercising acceptor retries and takeover under a
   lossy network. *)
let prop_lossy_convergence_paxos =
  QCheck.Test.make
    ~name:"Paxos commits converge under 5% and 20% datagram loss"
    ~count:8
    QCheck.(pair bool small_int)
    (fun (heavy, seed) ->
      run_case
        ~commit_protocol:(Tabs_tm.Commit_protocol.Paxos { f = 1 })
        ~loss:(if heavy then 0.20 else 0.05)
        ~seed:(seed + 1) ())

(* Regression for a Paxos Commit livelock: when every acceptor lost the
   coordinator's instance-set announcement while the coordinator's own
   instance held a Prepared accept, takeover retried forever and the
   cluster never went quiet. These 20%-loss seeds hit that schedule. The
   run is bounded: heal at 600 s, then no event may fire between 1,200 s
   and 2,400 s, and nothing may be left in doubt. *)
let test_paxos_loss_settles () =
  List.iter
    (fun seed ->
      let c, _, recorder =
        Crash_harness.write_all_lossy
          ~commit_protocol:(Tabs_tm.Commit_protocol.Paxos { f = 1 })
          ~loss:0.20 ~seed ()
      in
      Recorder.detach recorder;
      let engine = Cluster.engine c in
      Cluster.run_until c ~time:600_000_000;
      Network.set_loss (Cluster.network c) 0.0;
      Cluster.run_until c ~time:1_200_000_000;
      let settled = Tabs_sim.Engine.events_processed engine in
      Cluster.run_until c ~time:2_400_000_000;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no events after 1,200 s" seed)
        settled
        (Tabs_sim.Engine.events_processed engine);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: nothing in doubt" seed)
        true
        (Crash_harness.nothing_in_doubt (Cluster.nodes c)))
    [ 35; 43; 46; 65; 97 ]

let suites =
  [
    ( "net.lossy_commit",
      [
        QCheck_alcotest.to_alcotest prop_lossy_convergence;
        QCheck_alcotest.to_alcotest prop_lossy_convergence_with_batching;
        QCheck_alcotest.to_alcotest prop_lossy_convergence_paxos;
        Alcotest.test_case "Paxos loss livelock seeds settle" `Quick
          test_paxos_loss_settles;
        QCheck_alcotest.to_alcotest prop_crash_coordinator_2pc;
        QCheck_alcotest.to_alcotest prop_crash_coordinator_paxos;
        QCheck_alcotest.to_alcotest prop_crash_coordinator_paxos_no_restart;
      ] );
  ]
