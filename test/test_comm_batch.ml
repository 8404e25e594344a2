(* Tests for the Communication Manager's comm-batching layer: datagram
   coalescing and its frame cap, delayed/piggybacked acks, the
   retransmission burst cap, duplicate re-ack accounting, and off/on
   equivalence of outcomes and recoverable state. *)

open Tabs_sim
open Tabs_wal
open Tabs_net
open Tabs_core
open Tabs_servers

let quick name f = Alcotest.test_case name `Quick f

type Network.payload += Msg of int

let batching = Comm_mgr.default_batching

let msgs engine = Metrics.msgs (Engine.metrics engine)

(* Datagram coalescing ------------------------------------------------- *)

let test_datagrams_coalesce () =
  (* three datagrams queued to the same peer in one instant travel as
     one wire message charged one Datagram plus two Coalesced_frame
     increments *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:5 in
  let cm0 = Comm_mgr.create net ~node:0 ~batching () in
  let cm1 = Comm_mgr.create net ~node:1 ~batching () in
  let got = ref [] in
  let batches = ref [] in
  Engine.set_tracer engine
    (Some
       (fun ~time:_ ev ->
         match ev with
         | Comm_mgr.Comm_batch { frames; control; _ } ->
             batches := (frames, control) :: !batches
         | _ -> ()));
  Comm_mgr.add_datagram_handler cm1 (fun ~src:_ payload ->
      match payload with Msg v -> got := v :: !got | _ -> ());
  ignore
    (Engine.spawn engine ~node:0 (fun () ->
         Comm_mgr.send_datagram cm0 ~dest:1 (Msg 1);
         Comm_mgr.send_datagram cm0 ~dest:1 (Msg 2);
         Comm_mgr.send_datagram cm0 ~dest:1 (Msg 3)));
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "all delivered, in order" [ 1; 2; 3 ]
    (List.rev !got);
  Alcotest.(check int) "one wire message" 1 (msgs engine).Metrics.wire_messages;
  Alcotest.(check int) "three frames" 3 (msgs engine).Metrics.carried_frames;
  Alcotest.(check int) "one full datagram charge" 1
    (Metrics.count (Engine.metrics engine) Cost_model.Datagram);
  Alcotest.(check int) "two marginal frame charges" 2
    (Metrics.count (Engine.metrics engine) Cost_model.Coalesced_frame);
  Alcotest.(check (list (pair int int))) "one batch event" [ (3, 3) ] !batches

let test_frame_cap_closes_batch () =
  (* 20 datagrams queued to one peer in one instant: the 16th closes a
     batch that leaves at once, and the other 4 wait out the flush
     window *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:5 in
  let cm0 = Comm_mgr.create net ~node:0 ~batching () in
  let cm1 = Comm_mgr.create net ~node:1 ~batching () in
  let got = ref [] in
  let batches = ref [] in
  Engine.set_tracer engine
    (Some
       (fun ~time ev ->
         match ev with
         | Comm_mgr.Comm_batch { frames; _ } ->
             batches := (time, frames) :: !batches
         | _ -> ()));
  Comm_mgr.add_datagram_handler cm1 (fun ~src:_ payload ->
      match payload with Msg v -> got := v :: !got | _ -> ());
  ignore
    (Engine.spawn engine ~node:0 (fun () ->
         for v = 1 to 20 do
           Comm_mgr.send_datagram cm0 ~dest:1 (Msg v)
         done));
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "all delivered, in order"
    (List.init 20 (fun i -> i + 1))
    (List.rev !got);
  Alcotest.(check (list (pair int int)))
    "a full batch at once, the rest after the flush window"
    [ (0, Comm_mgr.max_frames); (Comm_mgr.flush_delay, 20 - Comm_mgr.max_frames) ]
    (List.rev !batches)

(* Delayed acks -------------------------------------------------------- *)

let test_lone_frame_acked_within_window () =
  (* a lone session frame with an idle reverse stream flushes within the
     flush window, and its standalone cumulative ack goes out no later
     than the ack window — well before the retransmission timeout *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:5 in
  let cm0 = Comm_mgr.create net ~node:0 ~batching () in
  let cm1 = Comm_mgr.create net ~node:1 ~batching () in
  let delivered_at = ref (-1) in
  let retransmits = ref 0 in
  Engine.set_tracer engine
    (Some
       (fun ~time:_ ev ->
         match ev with
         | Comm_mgr.Session_retransmit _ -> incr retransmits
         | _ -> ()));
  Comm_mgr.set_session_handler cm1 (fun ~src:_ _ ->
      delivered_at := Engine.now engine);
  Comm_mgr.session_send cm0 ~dest:1 (Msg 1);
  ignore (Engine.run engine);
  Alcotest.(check bool) "delivered within the flush window" true
    (!delivered_at >= 0 && !delivered_at <= Comm_mgr.flush_delay + 2_000);
  Alcotest.(check int) "one standalone delayed ack" 1
    (msgs engine).Metrics.delayed_acks;
  Alcotest.(check int) "nothing to piggyback on" 0
    (msgs engine).Metrics.piggybacked_acks;
  Alcotest.(check int) "frame + ack = two wire messages" 2
    (msgs engine).Metrics.wire_messages;
  Alcotest.(check int) "ack beat the retransmission timer" 0 !retransmits

let test_ack_piggybacks_on_reply () =
  (* when the receiver sends a frame back within the ack window, the
     delivery ack rides it instead of paying its own wire message *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:5 in
  let cm0 = Comm_mgr.create net ~node:0 ~batching () in
  let cm1 = Comm_mgr.create net ~node:1 ~batching () in
  let got_reply = ref false in
  let retransmits = ref 0 in
  Engine.set_tracer engine
    (Some
       (fun ~time:_ ev ->
         match ev with
         | Comm_mgr.Session_retransmit _ -> incr retransmits
         | _ -> ()));
  Comm_mgr.set_session_handler cm1 (fun ~src _ ->
      Comm_mgr.session_send cm1 ~dest:src (Msg 99));
  Comm_mgr.set_session_handler cm0 (fun ~src:_ _ -> got_reply := true);
  Comm_mgr.session_send cm0 ~dest:1 (Msg 1);
  ignore (Engine.run engine);
  Alcotest.(check bool) "reply delivered" true !got_reply;
  Alcotest.(check int) "request's ack rode the reply" 1
    (msgs engine).Metrics.piggybacked_acks;
  (* the reply's own ack still goes standalone: node 0 sends nothing
     more for it to ride *)
  Alcotest.(check int) "reply's ack went standalone" 1
    (msgs engine).Metrics.delayed_acks;
  Alcotest.(check int) "request + reply + one ack" 3
    (msgs engine).Metrics.wire_messages;
  Alcotest.(check int) "no retransmissions" 0 !retransmits

(* Retransmission burst cap -------------------------------------------- *)

let test_resend_burst_capped () =
  (* with 20 unacked frames and a burst cap of 8, each of the 8 timer
     rounds before the stream fails resends only the 8 head frames
     instead of the whole window *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:5 in
  let cm0 = Comm_mgr.create net ~node:0 () in
  let _cm1 = Comm_mgr.create net ~node:1 () in
  let windows = ref [] in
  Engine.set_tracer engine
    (Some
       (fun ~time:_ ev ->
         match ev with
         | Comm_mgr.Session_retransmit { window; _ } ->
             windows := window :: !windows
         | _ -> ()));
  Network.set_node_up net ~node:1 false;
  for v = 1 to 20 do
    Comm_mgr.session_send cm0 ~dest:1 (Msg v)
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "every barren round resends 8, not 20"
    (List.init 8 (fun _ -> 8))
    (List.rev !windows)

let test_resend_burst_progresses_under_loss () =
  (* the cap must not break delivery: in-order retransmission of the
     head frames still drains a 20-frame window through a lossy link *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:77 in
  let cm0 = Comm_mgr.create net ~node:0 () in
  let cm1 = Comm_mgr.create net ~node:1 () in
  Network.set_loss net 0.4;
  let got = ref [] in
  Comm_mgr.set_session_handler cm1 (fun ~src:_ payload ->
      match payload with Msg v -> got := v :: !got | _ -> ());
  for v = 1 to 20 do
    Comm_mgr.session_send cm0 ~dest:1 (Msg v)
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "at-most-once, ordered, complete"
    (List.init 20 (fun i -> i + 1))
    (List.rev !got)

(* Duplicate re-acks --------------------------------------------------- *)

(* Cut the link between nodes 0 and 1 from [from] to [until] µs of
   virtual time: an ack sent in that window is lost, so the sender's
   retransmission reaches the receiver as a duplicate. *)
let partition_between net ~from ~until =
  let engine = Network.engine net in
  Engine.at engine ~delay:from (fun () -> Network.set_partitioned net 0 1 true);
  Engine.at engine ~delay:until (fun () ->
      Network.set_partitioned net 0 1 false)

let test_duplicate_reack_counted_unbatched () =
  (* the frame arrives at 2 ms and its ack is lost in the partition: the
     receiver re-acks the 100 ms retransmission immediately and counts
     it *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:5 in
  let cm0 = Comm_mgr.create net ~node:0 () in
  let cm1 = Comm_mgr.create net ~node:1 () in
  let got = ref 0 in
  Comm_mgr.set_session_handler cm1 (fun ~src:_ _ -> incr got);
  partition_between net ~from:1_000 ~until:50_000;
  Comm_mgr.session_send cm0 ~dest:1 (Msg 1);
  ignore (Engine.run engine);
  Alcotest.(check int) "delivered exactly once" 1 !got;
  Alcotest.(check bool) "duplicate re-acks counted" true
    ((msgs engine).Metrics.duplicate_reacks > 0)

let test_duplicate_reack_delayed_when_batched () =
  (* with batching on, the duplicates' re-acks join the delayed-ack path
     (one cumulative ack) instead of answering every duplicate with its
     own wire message: five frames arrive together at 3 ms, their
     delayed ack is lost in the partition, and the 100 ms
     retransmission brings five duplicates *)
  let engine = Engine.create () in
  let net = Network.create engine ~seed:5 in
  let cm0 = Comm_mgr.create net ~node:0 ~batching () in
  let cm1 = Comm_mgr.create net ~node:1 ~batching () in
  let got = ref 0 in
  Comm_mgr.set_session_handler cm1 (fun ~src:_ _ -> incr got);
  partition_between net ~from:5_000 ~until:60_000;
  for v = 1 to 5 do
    Comm_mgr.session_send cm0 ~dest:1 (Msg v)
  done;
  ignore (Engine.run engine);
  let m = msgs engine in
  Alcotest.(check int) "each delivered exactly once" 5 !got;
  Alcotest.(check bool) "duplicates re-acked" true (m.Metrics.duplicate_reacks > 0);
  (* every re-ack was folded into delayed/piggybacked cumulative acks:
     wire traffic is the data frame, its retransmissions, and the acks —
     strictly fewer ack messages than ack-worthy deliveries *)
  Alcotest.(check bool) "re-acks shared cumulative ack messages" true
    (m.Metrics.delayed_acks + m.Metrics.piggybacked_acks
    < 1 + m.Metrics.duplicate_reacks)

(* Off/on equivalence -------------------------------------------------- *)

let server_name dest = Printf.sprintf "a%d" dest

(* The run_case harness (test_lossy_commit.ml) checks convergence under
   loss; here the network is lossless and the workload sequential, so
   batching must change nothing at all: same values on every replica and
   a byte-identical stable log on every node. *)
let run_sequential ?comm_batching () =
  let nodes = 3 and txns = 5 in
  let c = Cluster.create ~nodes ?comm_batching () in
  List.iter
    (fun node ->
      ignore
        (Int_array_server.create (Node.env node)
           ~name:(server_name (Node.id node))
           ~segment:1 ~cells:16 ()))
    (Cluster.nodes c);
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.run_fiber c ~node:0 (fun () ->
      for i = 0 to txns - 1 do
        Txn_lib.execute_transaction tm (fun tid ->
            for dest = 0 to nodes - 1 do
              Int_array_server.call_set rpc ~dest ~server:(server_name dest)
                tid i (100 + i)
            done)
      done);
  let values =
    Cluster.run_fiber c ~node:0 (fun () ->
        List.init txns (fun i ->
            Txn_lib.execute_transaction tm (fun tid ->
                List.init nodes (fun dest ->
                    Int_array_server.call_get rpc ~dest
                      ~server:(server_name dest) tid i))))
  in
  let logs =
    List.map
      (fun node ->
        let records = ref [] in
        Tabs_storage.Stable.iter
          (Log_manager.stable (Node.log node))
          ~f:(fun _ record -> records := record :: !records);
        List.rev !records)
      (Cluster.nodes c)
  in
  (values, logs)

let test_off_on_equivalent () =
  let off_values, off_logs = run_sequential () in
  let on_values, on_logs = run_sequential ~comm_batching:batching () in
  Alcotest.(check (list (list int)))
    "same committed values on every replica" off_values on_values;
  Alcotest.(check (list (list string)))
    "byte-identical stable log on every node" off_logs on_logs

let suites =
  [
    ( "net.comm_batch",
      [
        quick "datagrams coalesce" test_datagrams_coalesce;
        quick "frame cap closes a batch" test_frame_cap_closes_batch;
        quick "lone frame acked within window"
          test_lone_frame_acked_within_window;
        quick "ack piggybacks on reply" test_ack_piggybacks_on_reply;
        quick "resend burst capped" test_resend_burst_capped;
        quick "capped resend survives loss"
          test_resend_burst_progresses_under_loss;
        quick "duplicate re-ack counted (unbatched)"
          test_duplicate_reack_counted_unbatched;
        quick "duplicate re-ack delayed (batched)"
          test_duplicate_reack_delayed_when_batched;
        quick "off/on outcome and log equivalence" test_off_on_equivalent;
      ] );
  ]
