(* Availability under coordinator failure: survivor throughput while
   the coordinator node crash-loops, Two-phase commit vs. Paxos Commit.

   Four nodes. Node 3 is the victim: whenever it is up it fires
   distributed transactions that write the single hot cell on every
   other node, and it is crashed as soon as one of those transactions
   has a survivor prepared and in doubt — the worst possible moment —
   then stays down for most of each loop iteration. Nodes 0-2 are the
   survivors (and, in the Paxos arm, the 2F+1 = 3 acceptors): each
   runs an open loop of short local transactions against its own copy
   of the hot cell.

   When the victim dies between prepare and verdict, the survivors'
   prepared transactions keep their write locks on the hot cell, so
   every survivor's local traffic stops dead. Under Two_phase those
   locks stay held until a status query happens to land inside one of
   the victim's brief up-windows — with a 300 ms up-window against a
   3 s query period, most of the down-window is dead time and survivor
   commits collapse. Under Paxos the acceptor watchdogs run a takeover
   ballot ~2.5-4.5 s after the crash and release the survivors with
   the victim still down.

   The score for each arm is the survivors' committed-transaction
   count during the crash-loop window, next to a healthy-warmup
   baseline from the same configuration. CI asserts the Paxos
   crash-loop count is at least 5x the Two_phase one. *)

open Tabs_sim
open Tabs_core
open Tabs_servers

let default_nodes = 4

let hot_cell = 0

let warmup_start = 1_000_000 (* survivors settled *)

let warmup_end = 11_000_000 (* 10 s healthy baseline *)

let crashloop_end = 131_000_000 (* 120 s crash-loop window *)

let up_window = 300_000 (* victim alive this long per iteration *)

let down_window = 12_000_000 (* ... then dead this long *)

let server_name id = Printf.sprintf "a%d" id

type arm_stats = {
  label : string;
  nodes : int; (* cluster size; the victim is node [nodes - 1] *)
  baseline : int; (* survivor commits in the healthy window *)
  crashloop : int; (* survivor commits while the victim crash-loops *)
  attempts : int; (* survivor attempts during the crash-loop window *)
  incidents : int; (* victim crashes inflicted *)
  wire_messages : int; (* CM transmissions during the crash-loop window *)
}

(* [nodes] sizes the cluster: the victim is always the last node, the
   rest are survivors. Paxos arms need [2f + 1] acceptors, which live
   on nodes [0 .. 2f], so F=1 fits the default 4-node cluster and F=2
   needs [nodes = 6] (acceptors 0-4, victim 5). *)
let run_arm ~label ~commit_protocol ~seed ?(nodes = default_nodes)
    ?comm_batching () =
  let victim = nodes - 1 in
  let c = Cluster.create ~nodes ~seed ~commit_protocol ?comm_batching () in
  let holders =
    Array.map
      (fun node ->
        ref
          (Int_array_server.create (Node.env node)
             ~name:(server_name (Node.id node))
             ~segment:1 ~cells:16 ()))
      (Array.of_list (Cluster.nodes c))
  in
  let engine = Cluster.engine c in
  let commits = ref 0 and attempts = ref 0 and incidents = ref 0 in
  (* survivors: open loop of short local writes to the hot cells *)
  List.iter
    (fun node ->
      let id = Node.id node in
      if id < victim then
        Cluster.spawn c ~node:id (fun () ->
            let tm = Node.tm node in
            let i = ref 0 in
            while Engine.now engine < crashloop_end do
              incr i;
              incr attempts;
              (try
                 Txn_lib.execute_transaction tm (fun tid ->
                     Int_array_server.set !(holders.(id)) tid hot_cell !i);
                 incr commits
               with
              | Errors.Lock_timeout _ | Errors.Transaction_is_aborted _ ->
                  ());
              Engine.delay 10_000
            done))
    (Cluster.nodes c);
  (* victim: bursts of distributed writes on the same hot cells *)
  let nv = Cluster.node c victim in
  let start_victim_traffic () =
    Cluster.spawn c ~node:victim (fun () ->
        let j = ref 0 in
        while true do
          incr j;
          (try
             Txn_lib.execute_transaction (Node.tm nv) (fun tid ->
                 for dest = 0 to victim - 1 do
                   Int_array_server.call_set (Node.rpc nv) ~dest
                     ~server:(server_name dest) tid hot_cell (1000 + !j)
                 done)
           with
          | Errors.Lock_timeout _ | Errors.Transaction_is_aborted _
          | Rpc.Rpc_timeout _ ->
              ());
          Engine.delay 50_000
        done)
  in
  start_victim_traffic ();
  (* wait (bounded) for a survivor to be prepared and in doubt on one
     of the victim's transactions: crashing then is the worst case the
     commit protocol must absorb *)
  let await_in_doubt () =
    let deadline = Engine.now engine + up_window in
    let someone_in_doubt () =
      List.exists
        (fun node ->
          Node.id node < victim && Tabs_tm.Txn_mgr.in_doubt (Node.tm node) <> [])
        (Cluster.nodes c)
    in
    while Engine.now engine < deadline && not (someone_in_doubt ()) do
      Engine.delay 5_000
    done
  in
  (* healthy until [warmup_end], then the crash-loop; driven from a
     global fiber so it survives the victim's deaths *)
  ignore
    (Engine.spawn engine (fun () ->
         Engine.delay warmup_end;
         while Engine.now engine < crashloop_end - down_window do
           await_in_doubt ();
           Node.crash nv;
           incr incidents;
           Engine.delay down_window;
           ignore
           @@ Node.restart nv
                ~reinstall:(fun env ->
               holders.(victim) :=
                 Int_array_server.create env ~name:(server_name victim)
                   ~segment:1 ~cells:16 ())
             ~after_recovery:(fun outcome ->
               Server_lib.relock_in_doubt
                 (Int_array_server.server !(holders.(victim)))
                 outcome.Tabs_recovery.Recovery_mgr.written_objects)
             ();
           start_victim_traffic ()
         done));
  Cluster.run_until c ~time:warmup_start;
  commits := 0;
  Cluster.run_until c ~time:warmup_end;
  let baseline = !commits in
  commits := 0;
  attempts := 0;
  let msgs0 = (Metrics.msgs (Engine.metrics engine)).Metrics.wire_messages in
  Cluster.run_until c ~time:crashloop_end;
  {
    label;
    nodes;
    baseline;
    crashloop = !commits;
    attempts = !attempts;
    incidents = !incidents;
    wire_messages =
      (Metrics.msgs (Engine.metrics engine)).Metrics.wire_messages - msgs0;
  }

let json_file = "BENCH_availability.json"

let arm_json oc prefix (s : arm_stats) =
  Printf.fprintf oc
    "  \"%s\": {\"nodes\": %d, \"baseline_commits\": %d, \
     \"crashloop_commits\": %d, \"crashloop_attempts\": %d, \"incidents\": \
     %d, \"wire_messages\": %d, \"msgs_per_commit\": %.2f, \"retention\": \
     %.3f}"
    prefix s.nodes s.baseline s.crashloop s.attempts s.incidents
    s.wire_messages
    (float_of_int s.wire_messages /. float_of_int (max 1 s.crashloop))
    (float_of_int s.crashloop
    /. (float_of_int (max 1 s.baseline)
       *. float_of_int (crashloop_end - warmup_end)
       /. float_of_int (warmup_end - warmup_start)))

let write_json two_phase paxos paxos_f2 paxos_batched =
  let oc = open_out json_file in
  Printf.fprintf oc
    "{\n\
    \  \"baseline_window_s\": %.0f,\n\
    \  \"crashloop_window_s\": %.0f,\n\
    \  \"up_window_ms\": %d,\n\
    \  \"down_window_s\": %.0f,\n"
    (float_of_int (warmup_end - warmup_start) /. 1_000_000.)
    (float_of_int (crashloop_end - warmup_end) /. 1_000_000.)
    (up_window / 1_000)
    (float_of_int down_window /. 1_000_000.);
  arm_json oc "two_phase" two_phase;
  output_string oc ",\n";
  arm_json oc "paxos" paxos;
  output_string oc ",\n";
  arm_json oc "paxos_f2" paxos_f2;
  output_string oc ",\n";
  arm_json oc "paxos_batched" paxos_batched;
  Printf.fprintf oc ",\n  \"paxos_over_two_phase\": %.2f\n}\n"
    (float_of_int paxos.crashloop /. float_of_int (max 1 two_phase.crashloop));
  close_out oc

let print_availability () =
  let two_phase =
    run_arm ~label:"two_phase"
      ~commit_protocol:Tabs_tm.Commit_protocol.Two_phase ~seed:11 ()
  in
  let paxos =
    run_arm ~label:"paxos"
      ~commit_protocol:(Tabs_tm.Commit_protocol.Paxos { f = 1 })
      ~seed:11 ()
  in
  (* F=2: five acceptors (nodes 0-4) tolerate two acceptor failures;
     the victim coordinator is node 5. Its crash-loop score is not
     comparable to the 4-node arms head-on (five survivors generate
     more raw traffic), so [retention] — crash-loop commits relative
     to the arm's own healthy rate — is the cross-arm metric. *)
  let paxos_f2 =
    run_arm ~label:"paxos_f2"
      ~commit_protocol:(Tabs_tm.Commit_protocol.Paxos { f = 2 })
      ~seed:11 ~nodes:6 ()
  in
  (* Paxos with the Communication Manager's batching layer: the extra
     acceptor traffic is exactly the kind of short bursty datagram load
     comm batching coalesces, so this arm reports whether the
     availability win survives with fewer wire messages per commit. *)
  let paxos_batched =
    run_arm ~label:"paxos_batched"
      ~commit_protocol:(Tabs_tm.Commit_protocol.Paxos { f = 1 })
      ~seed:11 ~comm_batching:Tabs_net.Comm_mgr.default_batching ()
  in
  Printf.printf
    "\n\
     Availability under a coordinator crash-loop (%d s window, up %d ms / \
     down %d s):\n"
    ((crashloop_end - warmup_end) / 1_000_000)
    (up_window / 1_000) (down_window / 1_000_000);
  Printf.printf "  %-14s %6s %17s %17s %10s %9s %10s\n" "protocol" "nodes"
    "baseline commits" "crashloop commits" "attempts" "incidents"
    "msgs/commit";
  List.iter
    (fun s ->
      Printf.printf "  %-14s %6d %17d %17d %10d %9d %10.1f\n" s.label s.nodes
        s.baseline s.crashloop s.attempts s.incidents
        (float_of_int s.wire_messages /. float_of_int (max 1 s.crashloop)))
    [ two_phase; paxos; paxos_f2; paxos_batched ];
  Printf.printf "  paxos / two_phase commit ratio during crash-loop: %.2fx\n"
    (float_of_int paxos.crashloop /. float_of_int (max 1 two_phase.crashloop));
  write_json two_phase paxos paxos_f2 paxos_batched;
  Printf.printf "  wrote %s\n" json_file
