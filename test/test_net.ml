(* Tests for the network medium and the Communication Manager: datagram
   semantics, session at-most-once ordered delivery under loss,
   permanent-failure detection, restart incarnations, broadcast, and
   spanning-tree recording. *)

open Tabs_sim
open Tabs_wal
open Tabs_net

let quick name f = Alcotest.test_case name `Quick f

type Network.payload += Msg of int

let setup ?(nodes = 3) ?(seed = 5) () =
  let engine = Engine.create () in
  let net = Network.create engine ~seed in
  let cms = List.init nodes (fun node -> Comm_mgr.create net ~node ()) in
  (engine, net, cms)

let cm cms i = List.nth cms i

let test_datagram_delivery () =
  let engine, _, cms = setup () in
  let got = ref [] in
  Comm_mgr.add_datagram_handler (cm cms 1) (fun ~src payload ->
      match payload with Msg v -> got := (src, v) :: !got | _ -> ());
  let _ =
    Engine.spawn engine ~node:0 (fun () ->
        Comm_mgr.send_datagram (cm cms 0) ~dest:1 (Msg 42))
  in
  let _ = Engine.run engine in
  Alcotest.(check (list (pair int int))) "delivered with source" [ (0, 42) ] !got

let test_datagram_costs () =
  let engine, _, cms = setup () in
  let _ =
    Engine.spawn engine ~node:0 (fun () ->
        Comm_mgr.send_datagrams_parallel (cm cms 0) ~dests:[ 1; 2 ] (Msg 1))
  in
  let _ = Engine.run engine in
  (* 1 full + 1 half datagram = 1.5 weight, 37.5 ms *)
  Alcotest.(check int) "elapsed 37.5ms" 37_500 (Engine.now engine);
  Alcotest.(check bool) "weight 1.5" true
    (abs_float (Metrics.weight (Engine.metrics engine) Cost_model.Datagram -. 1.5)
    < 0.001)

let test_datagram_unreliable () =
  let engine, net, cms = setup () in
  Network.set_loss net 1.0;
  let got = ref 0 in
  Comm_mgr.add_datagram_handler (cm cms 1) (fun ~src:_ _ -> incr got);
  let _ =
    Engine.spawn engine ~node:0 (fun () ->
        Comm_mgr.send_datagram (cm cms 0) ~dest:1 (Msg 1))
  in
  let _ = Engine.run engine in
  Alcotest.(check int) "dropped silently" 0 !got;
  Alcotest.(check bool) "drop counted" true (Network.dropped net > 0);
  Alcotest.(check int) "attributed to the loss roll" (Network.dropped net)
    (Network.drops net).Network.loss

let test_session_ordered () =
  let _engine, net, cms = setup () in
  let engine = Network.engine net in
  let got = ref [] in
  Comm_mgr.set_session_handler (cm cms 1) (fun ~src:_ payload ->
      match payload with Msg v -> got := v :: !got | _ -> ());
  for v = 1 to 10 do
    Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg v)
  done;
  let _ = Engine.run engine in
  Alcotest.(check (list int)) "in order" (List.init 10 (fun i -> i + 1))
    (List.rev !got)

let test_session_survives_loss () =
  (* with 40% loss, retransmission still delivers everything exactly
     once, in order *)
  let engine, net, cms = setup ~seed:77 () in
  Network.set_loss net 0.4;
  let got = ref [] in
  Comm_mgr.set_session_handler (cm cms 1) (fun ~src:_ payload ->
      match payload with Msg v -> got := v :: !got | _ -> ());
  for v = 1 to 20 do
    Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg v)
  done;
  let _ = Engine.run engine in
  Alcotest.(check (list int)) "at-most-once, ordered, complete"
    (List.init 20 (fun i -> i + 1))
    (List.rev !got)

let prop_session_under_any_loss =
  QCheck.Test.make ~name:"sessions deliver exactly once under any loss rate"
    ~count:25
    QCheck.(pair (int_range 0 35) small_int)
    (fun (loss_pct, seed) ->
      let engine, net, cms = setup ~nodes:2 ~seed:(seed + 1) () in
      Network.set_loss net (float_of_int loss_pct /. 100.);
      let got = ref [] in
      Comm_mgr.set_session_handler (cm cms 1) (fun ~src:_ payload ->
          match payload with Msg v -> got := v :: !got | _ -> ());
      for v = 1 to 12 do
        Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg v)
      done;
      let _ = Engine.run engine in
      List.rev !got = List.init 12 (fun i -> i + 1))

let test_session_failure_detection () =
  let engine, net, cms = setup () in
  let failed_peer = ref None in
  Comm_mgr.set_failure_handler (cm cms 0) (fun ~peer -> failed_peer := Some peer);
  Network.set_node_up net ~node:1 false;
  Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg 1);
  let _ = Engine.run engine in
  Alcotest.(check (option int)) "dead peer reported" (Some 1) !failed_peer

let test_session_incarnation_reset () =
  (* after failure detection, traffic to the (restarted) peer uses a
     fresh stream starting at sequence 0 *)
  let engine, net, cms = setup () in
  let got = ref [] in
  Network.set_node_up net ~node:1 false;
  Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg 1);
  let _ = Engine.run engine in
  (* peer comes back as a fresh incarnation *)
  Network.set_node_up net ~node:1 true;
  let cm1' = Comm_mgr.create net ~node:1 () in
  Comm_mgr.set_session_handler cm1' (fun ~src:_ payload ->
      match payload with Msg v -> got := v :: !got | _ -> ());
  Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg 2);
  let _ = Engine.run engine in
  Alcotest.(check (list int)) "post-restart message delivered" [ 2 ] !got

let test_session_reset_renumbers_unacked () =
  (* the peer restarts mid-stream: messages it never acknowledged are
     renumbered into a fresh stream and still delivered exactly once *)
  let engine, net, cms = setup () in
  let got = ref [] in
  Comm_mgr.set_session_handler (cm cms 1) (fun ~src:_ payload ->
      match payload with Msg v -> got := v :: !got | _ -> ());
  (* deliver two messages normally *)
  Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg 1);
  Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg 2);
  let _ = Engine.run engine in
  (* peer goes down; two more messages are sent into the void *)
  Network.set_node_up net ~node:1 false;
  Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg 3);
  Comm_mgr.session_send (cm cms 0) ~dest:1 (Msg 4);
  Engine.run_until engine ~time:(Engine.now engine + 150_000);
  (* peer restarts with a fresh Communication Manager before the sender
     declares it dead; the reset handshake renumbers 3 and 4 *)
  Network.set_node_up net ~node:1 true;
  let cm1' = Comm_mgr.create net ~node:1 () in
  Comm_mgr.set_session_handler cm1' (fun ~src:_ payload ->
      match payload with Msg v -> got := v :: !got | _ -> ());
  let _ = Engine.run engine in
  Alcotest.(check (list int))
    "all messages delivered exactly once, in order"
    [ 1; 2; 3; 4 ] (List.rev !got)

let test_broadcast () =
  let engine, _, cms = setup () in
  let got = ref [] in
  List.iteri
    (fun i c ->
      if i > 0 then
        Comm_mgr.set_broadcast_handler c (fun ~src payload ->
            match payload with Msg v -> got := (i, src, v) :: !got | _ -> ()))
    cms;
  let _ =
    Engine.spawn engine ~node:0 (fun () -> Comm_mgr.broadcast (cm cms 0) (Msg 9))
  in
  let _ = Engine.run engine in
  Alcotest.(check (list (triple int int int)))
    "all other nodes heard it"
    [ (1, 0, 9); (2, 0, 9) ]
    (List.sort compare !got)

let test_partition () =
  let engine, net, cms = setup () in
  let got = ref 0 in
  Comm_mgr.add_datagram_handler (cm cms 1) (fun ~src:_ _ -> incr got);
  Network.set_partitioned net 0 1 true;
  let _ =
    Engine.spawn engine ~node:0 (fun () ->
        Comm_mgr.send_datagram (cm cms 0) ~dest:1 (Msg 1))
  in
  let _ = Engine.run engine in
  Alcotest.(check int) "blocked" 0 !got;
  Network.set_partitioned net 0 1 false;
  let _ =
    Engine.spawn engine ~node:0 (fun () ->
        Comm_mgr.send_datagram (cm cms 0) ~dest:1 (Msg 1))
  in
  let _ = Engine.run engine in
  Alcotest.(check int) "healed" 1 !got

(* Drop-cause accounting --------------------------------------------------- *)

let test_drop_causes () =
  let engine, net, cms = setup () in
  Comm_mgr.add_datagram_handler (cm cms 1) (fun ~src:_ _ -> ());
  let send () =
    let _ =
      Engine.spawn engine ~node:0 (fun () ->
          Comm_mgr.send_datagram (cm cms 0) ~dest:1 (Msg 1))
    in
    ignore (Engine.run engine)
  in
  Network.set_loss net 1.0;
  send ();
  Network.set_loss net 0.0;
  Network.set_partitioned net 0 1 true;
  send ();
  Network.set_partitioned net 0 1 false;
  Network.set_node_up net ~node:1 false;
  send ();
  Network.set_node_up net ~node:1 true;
  (* a node that never registered accepts the transmission but has no
     handler on the channel *)
  Network.transmit net ~src:0 ~dest:7 ~channel:Network.Datagram ~delay:10
    (Msg 1);
  ignore (Engine.run engine);
  let d = Network.drops net in
  Alcotest.(check int) "loss roll" 1 d.Network.loss;
  Alcotest.(check int) "partition" 1 d.Network.partition;
  Alcotest.(check int) "down endpoint" 1 d.Network.down;
  Alcotest.(check int) "no handler" 1 d.Network.no_handler;
  Alcotest.(check int) "total is the sum of causes"
    (d.Network.loss + d.Network.partition + d.Network.down
   + d.Network.no_handler)
    (Network.dropped net)

(* Session retransmission backoff ------------------------------------------ *)

let test_session_backoff_schedule () =
  (* With the peer down, retransmissions back off exponentially:
     base rto, 2x, 4x, ... and the stream is declared failed after
     [session_retries] barren rounds. *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:1 in
  let cm0 =
    Comm_mgr.create net ~node:0 ~session_rto:100_000 ~session_retries:3 ()
  in
  let _cm1 = Comm_mgr.create net ~node:1 () in
  let retransmits = ref [] and failed_at = ref None in
  Engine.set_tracer engine
    (Some
       (fun ~time ev ->
         match ev with
         | Comm_mgr.Session_retransmit { attempt; rto; _ } ->
             retransmits := (time, attempt, rto) :: !retransmits
         | Comm_mgr.Session_failure { peer; _ } ->
             failed_at := Some (time, peer)
         | _ -> ()));
  Network.set_node_up net ~node:1 false;
  Comm_mgr.session_send cm0 ~dest:1 (Msg 1);
  let _ = Engine.run engine in
  Alcotest.(check (list (triple int int int)))
    "doubling retransmission schedule"
    [ (100_000, 1, 100_000); (300_000, 2, 200_000); (700_000, 3, 400_000) ]
    (List.rev !retransmits);
  Alcotest.(check (option (pair int int)))
    "declared failed one capped rto after the last round"
    (Some (1_500_000, 1))
    !failed_at

let test_session_backoff_reset_on_ack () =
  (* Two barren rounds double the rto; once the (restarted) peer answers
     and the stream makes progress, the backoff resets, so the next
     barren round waits only the base rto again. *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:3 in
  let cm0 = Comm_mgr.create net ~node:0 ~session_rto:100_000 () in
  let _cm1 = Comm_mgr.create net ~node:1 () in
  let rtos = ref [] in
  Engine.set_tracer engine
    (Some
       (fun ~time:_ ev ->
         match ev with
         | Comm_mgr.Session_retransmit { rto; _ } -> rtos := rto :: !rtos
         | _ -> ()));
  Network.set_node_up net ~node:1 false;
  Comm_mgr.session_send cm0 ~dest:1 (Msg 1);
  (* rounds at 100k and 300k fire barren; rto is now 400k *)
  Engine.run_until engine ~time:350_000;
  Network.set_node_up net ~node:1 true;
  let cm1' = Comm_mgr.create net ~node:1 () in
  Comm_mgr.set_session_handler cm1' (fun ~src:_ _ -> ());
  (* the 700k round reaches the fresh incarnation; the reset handshake
     renumbers, delivers, and the progressing ack resets the backoff *)
  let _ = Engine.run engine in
  Network.set_node_up net ~node:1 false;
  let t0 = Engine.now engine in
  Comm_mgr.session_send cm0 ~dest:1 (Msg 2);
  Engine.run_until engine ~time:(t0 + 150_000);
  Alcotest.(check (list int)) "doubles, then resets to the base rto"
    [ 100_000; 200_000; 400_000; 100_000 ]
    (List.rev !rtos)

(* Spanning tree ---------------------------------------------------------- *)

let test_spanning_tree () =
  let engine, _, cms = setup () in
  let tid = Tid.top ~node:0 ~seq:1 in
  let spread = ref [] in
  List.iteri
    (fun i c ->
      Comm_mgr.set_remote_involvement_handler c (fun t ->
          spread := (i, Tid.to_string t) :: !spread))
    cms;
  (* the tid names node 0 as the root: 0 sends to 1; 1 sends onward to 2; replies flow back *)
  Comm_mgr.session_send (cm cms 0) ~dest:1 ~tid (Msg 1);
  let _ = Engine.run engine in
  Comm_mgr.session_send (cm cms 1) ~dest:2 ~tid (Msg 2);
  let _ = Engine.run engine in
  (* replies: child to parent must not create edges *)
  Comm_mgr.session_send (cm cms 2) ~dest:1 ~tid (Msg 3);
  Comm_mgr.session_send (cm cms 1) ~dest:0 ~tid (Msg 4);
  let _ = Engine.run engine in
  Alcotest.(check (option int)) "root has no parent" None
    (Comm_mgr.parent_of (cm cms 0) tid);
  Alcotest.(check (list int)) "root's children" [ 1 ]
    (Comm_mgr.children_of (cm cms 0) tid);
  Alcotest.(check (option int)) "1's parent is 0" (Some 0)
    (Comm_mgr.parent_of (cm cms 1) tid);
  Alcotest.(check (list int)) "1's children" [ 2 ]
    (Comm_mgr.children_of (cm cms 1) tid);
  Alcotest.(check (option int)) "2's parent is 1" (Some 1)
    (Comm_mgr.parent_of (cm cms 2) tid);
  Alcotest.(check (list int)) "2 is a leaf" [] (Comm_mgr.children_of (cm cms 2) tid);
  (* each node reported remote involvement exactly once *)
  Alcotest.(check int) "three involvement notices" 3 (List.length !spread)

let test_tree_forgotten () =
  let engine, _, cms = setup () in
  let tid = Tid.top ~node:0 ~seq:2 in
  Comm_mgr.session_send (cm cms 0) ~dest:1 ~tid (Msg 1);
  let _ = Engine.run engine in
  Alcotest.(check bool) "involved" true
    (Comm_mgr.involved_remotely (cm cms 0) tid);
  Comm_mgr.forget_txn (cm cms 0) tid;
  Alcotest.(check bool) "forgotten" false
    (Comm_mgr.involved_remotely (cm cms 0) tid)

(* Node 0 restarted: its own transaction comes back from node 1 before
   node 0 has sent anything for it. The tid still names node 0 as the
   root, so node 1 does not become its parent. A query for a tid never
   seen leaves no tree behind for [forget_txn] to miss. *)
let test_root_after_restart () =
  let engine, _, cms = setup () in
  let tid = Tid.top ~node:0 ~seq:3 in
  let unknown = Tid.top ~node:2 ~seq:9 in
  Alcotest.(check (option int)) "unknown: no parent" None
    (Comm_mgr.parent_of (cm cms 0) unknown);
  Alcotest.(check (list int)) "unknown: no children" []
    (Comm_mgr.children_of (cm cms 0) unknown);
  Alcotest.(check bool) "unknown: not involved" false
    (Comm_mgr.involved_remotely (cm cms 0) unknown);
  let words () = Obj.reachable_words (Obj.repr (cm cms 0)) in
  let before = words () in
  for seq = 10 to 200 do
    ignore (Comm_mgr.involved_remotely (cm cms 0) (Tid.top ~node:2 ~seq))
  done;
  Alcotest.(check int) "queries allocate no tree" before (words ());
  let noticed = ref 0 in
  Comm_mgr.set_remote_involvement_handler (cm cms 0) (fun _ -> incr noticed);
  Comm_mgr.session_send (cm cms 1) ~dest:0 ~tid (Msg 1);
  let _ = Engine.run engine in
  Alcotest.(check (option int)) "root has no parent" None
    (Comm_mgr.parent_of (cm cms 0) tid);
  Alcotest.(check (list int)) "and no children" []
    (Comm_mgr.children_of (cm cms 0) tid);
  Alcotest.(check int) "remote involvement still noticed" 1 !noticed

let suites =
  [
    ( "net.datagram",
      [
        quick "delivery" test_datagram_delivery;
        quick "parallel costs" test_datagram_costs;
        quick "unreliable" test_datagram_unreliable;
        quick "partition" test_partition;
        quick "drop causes" test_drop_causes;
      ] );
    ( "net.session",
      [
        quick "ordered" test_session_ordered;
        quick "survives loss" test_session_survives_loss;
        quick "failure detection" test_session_failure_detection;
        quick "incarnation reset" test_session_incarnation_reset;
        quick "reset renumbers unacked" test_session_reset_renumbers_unacked;
        quick "backoff schedule" test_session_backoff_schedule;
        quick "backoff resets on ack" test_session_backoff_reset_on_ack;
        QCheck_alcotest.to_alcotest prop_session_under_any_loss;
      ] );
    ("net.broadcast", [ quick "fan out" test_broadcast ]);
    ( "net.tree",
      [
        quick "spanning tree" test_spanning_tree;
        quick "forgotten" test_tree_forgotten;
        quick "root after restart" test_root_after_restart;
      ] );
  ]
