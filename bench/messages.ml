(* Messages-per-transaction exploration: what the comm-batching layer
   (piggybacked acks + datagram coalescing, lib/net/comm_mgr.ml) does to
   wire traffic and throughput of the distributed commit.

   N concurrent application fibers on node 0 each run read-modify-write
   transactions that update one cell on node 1 and one on node 2, so
   every commit is a tree two-phase commit with two subordinates. Both
   arms run with group commit on — otherwise the single-channel log
   device serializes commit forces and bounds throughput long before the
   network does, hiding what batching buys. The arms differ only in
   [?comm_batching]. *)

open Tabs_sim
open Tabs_core
open Tabs_servers

type point = {
  workers : int;
  committed : int; (* distributed commits coordinated by node 0 *)
  aborted : int;
  txn_per_sec : float;
  wire_messages : int; (* CM transmissions across all nodes *)
  carried_frames : int;
  msgs_per_commit : float;
  piggybacked_acks : int;
  delayed_acks : int;
  events : int; (* engine events processed by the run *)
}

let horizon = 10_000_000 (* 10 virtual seconds *)

let run_point ?comm_batching ~workers () =
  let cluster =
    Cluster.create ~nodes:3 ~group_commit:Tabs_recovery.Group_commit.default
      ?comm_batching ()
  in
  let cells = max 1024 (workers * 4) in
  List.iter
    (fun node ->
      ignore
        (Int_array_server.create (Node.env node)
           ~name:(Printf.sprintf "a%d" (Node.id node))
           ~segment:1 ~cells ()))
    (Cluster.nodes cluster);
  let node0 = Cluster.node cluster 0 in
  let tm = Node.tm node0 in
  let rpc = Node.rpc node0 in
  let engine = Cluster.engine cluster in
  let aborted = ref 0 in
  for w = 0 to workers - 1 do
    Cluster.spawn cluster ~node:0 (fun () ->
        let rng = Rng.create ~seed:(w + 1) in
        while Engine.now engine < horizon do
          let cell = (w * 4) + Rng.int rng 4 in
          match
            Txn_lib.execute_transaction tm (fun tid ->
                Int_array_server.call_set rpc ~dest:1 ~server:"a1" tid cell w;
                Int_array_server.call_set rpc ~dest:2 ~server:"a2" tid cell w)
          with
          | () -> ()
          | exception Errors.Lock_timeout _ -> incr aborted
          | exception Errors.Transaction_is_aborted _ -> incr aborted
        done)
  done;
  Cluster.run_until cluster ~time:(4 * horizon);
  let committed = Tabs_tm.Txn_mgr.distributed_commits tm in
  let m = Metrics.msgs (Engine.metrics engine) in
  {
    workers;
    committed;
    aborted = !aborted;
    txn_per_sec =
      float_of_int committed /. (float_of_int horizon /. 1_000_000.);
    wire_messages = m.Metrics.wire_messages;
    carried_frames = m.Metrics.carried_frames;
    msgs_per_commit =
      (if committed = 0 then 0.
       else float_of_int m.Metrics.wire_messages /. float_of_int committed);
    piggybacked_acks = m.Metrics.piggybacked_acks;
    delayed_acks = m.Metrics.delayed_acks;
    events = Engine.events_processed engine;
  }

type pair = { off : point; on_ : point }

let batch_config = Tabs_net.Comm_mgr.default_batching

let worker_counts = [ 1; 2; 4; 8; 16; 32 ]

let run_comparison () =
  List.map
    (fun workers ->
      {
        off = run_point ~workers ();
        on_ = run_point ~comm_batching:batch_config ~workers ();
      })
    worker_counts

let reduction p =
  if p.off.msgs_per_commit = 0. then 0.
  else 1. -. (p.on_.msgs_per_commit /. p.off.msgs_per_commit)

let json_file = "BENCH_messages.json"

let write_json pairs =
  let oc = open_out json_file in
  Printf.fprintf oc
    "{\n\
    \  \"ack_delay_us\": %d,\n\
    \  \"flush_delay_us\": %d,\n\
    \  \"max_frames\": %d,\n\
    \  \"points\": [\n"
    batch_config.ack_delay batch_config.flush_delay batch_config.max_frames;
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "    {\"workers\": %d, \"off_wire_messages\": %d, \
         \"on_wire_messages\": %d, \"off_commits\": %d, \"on_commits\": %d, \
         \"off_msgs_per_commit\": %.3f, \"on_msgs_per_commit\": %.3f, \
         \"reduction\": %.4f, \"off_txn_per_sec\": %.2f, \"on_txn_per_sec\": \
         %.2f, \"on_carried_frames\": %d, \"on_piggybacked_acks\": %d, \
         \"on_delayed_acks\": %d}%s\n"
        p.off.workers p.off.wire_messages p.on_.wire_messages p.off.committed
        p.on_.committed p.off.msgs_per_commit p.on_.msgs_per_commit
        (reduction p) p.off.txn_per_sec p.on_.txn_per_sec
        p.on_.carried_frames p.on_.piggybacked_acks p.on_.delayed_acks
        (if i = List.length pairs - 1 then "" else ","))
    pairs;
  output_string oc "  ]\n}\n";
  close_out oc

let print_messages () =
  Printf.printf
    "\nComm batching: wire messages per distributed commit (3 nodes, 2 \
     remote writes per txn;\nack window %d us, flush window %d us, group \
     commit on in both arms)\n"
    batch_config.ack_delay batch_config.flush_delay;
  Printf.printf "%s\n" (String.make 64 '-');
  Printf.printf "    %8s %11s %11s %11s %11s %10s %12s %12s %10s\n" "workers"
    "off msgs" "on msgs" "off m/cmt" "on m/cmt" "reduction" "off txn/s"
    "on txn/s" "piggyback";
  let pairs = run_comparison () in
  List.iter
    (fun p ->
      Printf.printf
        "    %8d %11d %11d %11.2f %11.2f %9.1f%% %12.2f %12.2f %10d\n"
        p.off.workers p.off.wire_messages p.on_.wire_messages
        p.off.msgs_per_commit p.on_.msgs_per_commit
        (100. *. reduction p)
        p.off.txn_per_sec p.on_.txn_per_sec p.on_.piggybacked_acks)
    pairs;
  write_json pairs;
  Printf.printf
    "  (off: every session frame, ack, and commit-protocol datagram is its\n\
    \   own wire message; on: acks ride reverse-direction frames and frames\n\
    \   to the same peer coalesce; curve written to %s)\n"
    json_file
