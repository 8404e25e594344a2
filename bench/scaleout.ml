(* Scale-out curve: committed throughput vs. shard count at a fixed
   offered load, driven by the open-loop Zipfian generator
   (bench/generator.ml) over a range-sharded int-array deployment.

   One shard is the seed system (every transaction local, commits bound
   by the single log device even with group commit). Adding shards adds
   log devices and lock managers: single-shard traffic spreads by key
   range and should scale near-linearly until the offered load is fully
   absorbed. The [cross_frac] of two-shard transactions pays tree 2PC;
   the off/on arms differ only in comm batching, so the cross-shard
   latency gap and messages-per-distributed-commit show what batching
   does to the 2PC tax.

   Group commit is on in both arms — without it the single log channel
   saturates at a few transactions per second and the curve measures
   the log device, not the sharding. *)

type pair = { off : Generator.stats; on_ : Generator.stats }

let shard_counts = [ 1; 2; 4; 8; 16 ]

let batch_config = Tabs_net.Comm_mgr.default_batching

(* Twice the generator's default load: at 240 tps eight shards already
   absorb every arrival, so the 8/1-shard ratio would measure the
   offered load rather than the sharding. *)
let base = { Generator.default with offered_load = 480. }

let run_pair shards =
  {
    off =
      Generator.run ~group_commit:Tabs_recovery.Group_commit.default
        { base with shards };
    on_ =
      Generator.run ~group_commit:Tabs_recovery.Group_commit.default
        ~comm_batching:batch_config { base with shards };
  }

(* Chaos arm: kill one shard's node mid-load under the Zipfian arrival
   process, restart it 500 virtual ms later, and measure what the
   outage costs end to end — committed throughput, tail latency, and
   how long until the wounded shard commits again — with instant
   restart off vs on. Both arms run group commit, checkpointing, and
   parallel recovery; only [?instant_restart] differs, so the gap is
   the serve-while-recovering effect alone. *)

type chaos_stats = {
  ch_instant : bool;
  ch_offered : int;
  ch_committed : int;
  ch_aborted : int;
  ch_refused : int; (* arrivals aimed at the dead node, turned away *)
  ch_txn_per_sec : float;
  ch_p99_us : int; (* over every commit of the whole run *)
  ch_outage_committed : int; (* commits in [kill, kill + 1s) *)
  ch_open_us : int; (* recovery's time until the node accepts work *)
  ch_ttfc_us : int; (* restart start -> first commit on the wounded
                       shard (0 if none committed) *)
}

let chaos_shards = 4

let chaos_keys = 16_384

let chaos_horizon = 6_000_000

let chaos_kill_at = 2_000_000

let chaos_restart_at = 2_500_000

let chaos_offered_load = 240.

let chaos_cross_frac = 0.15

let run_chaos ~instant =
  let open Tabs_sim in
  let open Tabs_core in
  let open Tabs_servers in
  let scramble = Generator.scramble and poisson_gap = Generator.poisson_gap in
  let c =
    Cluster.create ~nodes:chaos_shards
      ~group_commit:Tabs_recovery.Group_commit.default
      ~checkpointing:100_000 ~parallel_recovery:4
      ~instant_restart:instant ()
  in
  let engine = Cluster.engine c in
  let arr =
    Sharded.Int_array.deploy c ~name:"k" ~keys:chaos_keys ()
  in
  let rng = Rng.create ~seed:7 in
  let zipf = Rng.Zipf.create ~n:chaos_keys ~theta:0.9 in
  let sample_key () = scramble ~keys:chaos_keys (Rng.Zipf.sample zipf rng) in
  let victim_shard = 1 in
  let victim = Cluster.shard_node c victim_shard in
  let offered = ref 0 and refused = ref 0 in
  let committed = ref 0 and aborted = ref 0 in
  let outage_committed = ref 0 in
  let latencies = ref [] in
  let victim_first_commit = ref None in
  let outstanding = Array.make (Cluster.node_count c) 0 in
  let max_outstanding = 64 in
  let spawn_txn ~primary_key ~secondary_key =
    let loc = Sharded.Int_array.locate arr primary_key in
    let gateway = loc.Placement.node in
    if not (Node.is_up (Cluster.node c gateway)) then incr refused
    else if outstanding.(gateway) >= max_outstanding then incr refused
    else begin
      outstanding.(gateway) <- outstanding.(gateway) + 1;
      let node = Cluster.node c gateway in
      let tm = Node.tm node and rpc = Node.rpc node in
      Cluster.spawn c ~node:gateway (fun () ->
          let t0 = Engine.now engine in
          let value = t0 land 0xFFFF in
          (match
             Txn_lib.execute_transaction tm (fun tid ->
                 Sharded.Int_array.set arr rpc tid primary_key value;
                 match secondary_key with
                 | Some k -> Sharded.Int_array.set arr rpc tid k value
                 | None -> ())
           with
          | () ->
              incr committed;
              let now = Engine.now engine in
              if now >= chaos_kill_at && now < chaos_kill_at + 1_000_000
              then incr outage_committed;
              if
                loc.Placement.shard = victim_shard
                && now >= chaos_restart_at
                && !victim_first_commit = None
              then victim_first_commit := Some now;
              latencies := (now - t0) :: !latencies
          | exception Errors.Lock_timeout _ -> incr aborted
          | exception Errors.Transaction_is_aborted _ -> incr aborted
          | exception Rpc.Rpc_timeout _ -> incr aborted);
          outstanding.(gateway) <- outstanding.(gateway) - 1)
    end
  in
  let rec arrival () =
    if Engine.now engine < chaos_horizon then begin
      incr offered;
      let cross = Rng.bool rng ~p:chaos_cross_frac in
      let a = sample_key () in
      let secondary =
        if not cross then None
        else begin
          let sa = (Sharded.Int_array.locate arr a).Placement.shard in
          let rec draw tries =
            if tries = 0 then None
            else
              let b = sample_key () in
              if
                (Sharded.Int_array.locate arr b).Placement.shard <> sa
                && b <> a
              then Some b
              else draw (tries - 1)
          in
          draw 32
        end
      in
      spawn_txn ~primary_key:a ~secondary_key:secondary;
      Engine.at engine
        ~delay:(poisson_gap rng ~offered_load:chaos_offered_load)
        arrival
    end
  in
  Engine.at engine
    ~delay:(poisson_gap rng ~offered_load:chaos_offered_load)
    arrival;
  Cluster.run_until c ~time:chaos_kill_at;
  Node.crash victim;
  Cluster.run_until c ~time:chaos_restart_at;
  (* the restart clears the dead node's accept queue *)
  outstanding.(Node.id victim) <- 0;
  let restart_t0 = Engine.now engine in
  let outcome = ref None in
  Cluster.spawn c
    ~node:(Node.id victim)
    (fun () ->
      outcome :=
        Some
          (Node.restart victim
             ~reinstall:(fun env ->
               ignore (Sharded.Int_array.reinstall arr ~shard:victim_shard env))
             ()));
  Cluster.run_until c ~time:(3 * chaos_horizon);
  let outcome =
    match !outcome with
    | Some o -> o
    | None -> failwith "chaos: the victim never finished recovering"
  in
  {
    ch_instant = instant;
    ch_offered = !offered;
    ch_committed = !committed;
    ch_aborted = !aborted;
    ch_refused = !refused;
    ch_txn_per_sec =
      float_of_int !committed
      /. (float_of_int chaos_horizon /. 1_000_000.);
    ch_p99_us = Tabs_obs.Hist.p99 (Tabs_obs.Hist.of_list !latencies);
    ch_outage_committed = !outage_committed;
    ch_open_us = outcome.Tabs_recovery.Recovery_mgr.time_to_open_us;
    ch_ttfc_us =
      (match !victim_first_commit with
      | Some t -> t - restart_t0
      | None -> 0);
  }

let json_file = "BENCH_scaleout.json"

let arm_json oc prefix (s : Generator.stats) =
  Printf.fprintf oc
    "\"%s_offered\": %d, \"%s_shed\": %d, \"%s_committed\": %d, \
     \"%s_aborted\": %d, \"%s_cross_committed\": %d, \"%s_txn_per_sec\": \
     %.2f, \"%s_p50_single_us\": %d, \"%s_p95_single_us\": %d, \
     \"%s_p50_cross_us\": %d, \"%s_p95_cross_us\": %d, \
     \"%s_wire_messages\": %d, \"%s_msgs_per_cross_commit\": %.2f"
    prefix s.offered prefix s.shed prefix s.committed prefix s.aborted prefix
    s.cross_committed prefix s.txn_per_sec prefix s.p50_single_us prefix
    s.p95_single_us prefix s.p50_cross_us prefix s.p95_cross_us prefix
    s.wire_messages prefix s.msgs_per_cross_commit

let chaos_json oc (s : chaos_stats) =
  Printf.fprintf oc
    "    {\"instant\": %b, \"offered\": %d, \"committed\": %d, \"aborted\": \
     %d, \"refused\": %d, \"txn_per_sec\": %.2f, \"p99_us\": %d, \
     \"outage_committed\": %d, \"open_us\": %d, \"ttfc_us\": %d}"
    s.ch_instant s.ch_offered s.ch_committed s.ch_aborted s.ch_refused
    s.ch_txn_per_sec s.ch_p99_us s.ch_outage_committed s.ch_open_us
    s.ch_ttfc_us

let write_json pairs ~chaos_off ~chaos_on =
  let oc = open_out json_file in
  Printf.fprintf oc
    "{\n\
    \  \"offered_load_tps\": %.0f,\n\
    \  \"horizon_s\": %.0f,\n\
    \  \"zipf_theta\": %.2f,\n\
    \  \"cross_frac\": %.2f,\n\
    \  \"keys\": %d,\n\
    \  \"max_outstanding\": %d,\n\
    \  \"points\": [\n"
    base.offered_load
    (float_of_int base.horizon /. 1_000_000.)
    base.theta base.cross_frac base.keys base.max_outstanding;
  List.iteri
    (fun i p ->
      Printf.fprintf oc "    {\"shards\": %d, " p.off.config.Generator.shards;
      arm_json oc "off" p.off;
      output_string oc ", ";
      arm_json oc "on" p.on_;
      Printf.fprintf oc "}%s\n"
        (if i = List.length pairs - 1 then "" else ","))
    pairs;
  output_string oc "  ],\n";
  Printf.fprintf oc
    "  \"chaos\": {\n\
    \    \"shards\": %d,\n\
    \    \"kill_at_us\": %d,\n\
    \    \"restart_at_us\": %d,\n\
    \    \"horizon_us\": %d,\n\
    \    \"arms\": [\n"
    chaos_shards chaos_kill_at chaos_restart_at chaos_horizon;
  chaos_json oc chaos_off;
  output_string oc ",\n";
  chaos_json oc chaos_on;
  output_string oc "\n    ]\n  }\n}\n";
  close_out oc

let print_scaleout () =
  Printf.printf
    "\nScale-out: committed txn/s vs. shard count at %.0f offered txn/s\n\
     (Zipf theta %.2f over %d keys, %.0f%% cross-shard, open-loop Poisson \
     arrivals,\n\
     group commit on; arms differ only in comm batching)\n"
    base.offered_load base.theta base.keys (100. *. base.cross_frac);
  Printf.printf "%s\n" (String.make 76 '-');
  Printf.printf "    %6s %10s %10s %8s %8s %11s %11s %9s\n" "shards"
    "off txn/s" "on txn/s" "off shed" "on shed" "p50 1shard" "p50 cross"
    "m/xcommit";
  let pairs = List.map run_pair shard_counts in
  List.iter
    (fun p ->
      Printf.printf "    %6d %10.1f %10.1f %8d %8d %11d %11d %9.1f\n"
        p.off.config.Generator.shards p.off.txn_per_sec p.on_.txn_per_sec
        p.off.shed p.on_.shed p.on_.p50_single_us p.on_.p50_cross_us
        p.on_.msgs_per_cross_commit)
    pairs;
  (match (pairs, List.rev pairs) with
  | one :: _, _ ->
      let at n =
        List.find_opt (fun p -> p.off.config.Generator.shards = n) pairs
      in
      (match at 8 with
      | Some eight when one.on_.committed > 0 ->
          Printf.printf
            "  8-shard speedup over 1 shard: %.2fx (batching on), %.2fx \
             (batching off)\n"
            (float_of_int eight.on_.committed
            /. float_of_int one.on_.committed)
            (float_of_int eight.off.committed
            /. float_of_int (max 1 one.off.committed))
      | _ -> ())
  | _ -> ());
  Printf.printf
    "\nChaos: shard %d's node killed at %.1fs, restarted at %.1fs (%d \
     shards,\n\
     %.0f offered txn/s; group commit + checkpointing + parallel recovery \
     in both arms)\n"
    1
    (float_of_int chaos_kill_at /. 1_000_000.)
    (float_of_int chaos_restart_at /. 1_000_000.)
    chaos_shards chaos_offered_load;
  Printf.printf "%s\n" (String.make 76 '-');
  let chaos_off = run_chaos ~instant:false in
  let chaos_on = run_chaos ~instant:true in
  Printf.printf "    %8s %10s %8s %8s %8s %11s %9s %9s\n" "instant"
    "committed" "txn/s" "aborted" "p99 us" "outage txn" "open us" "ttfc us";
  List.iter
    (fun s ->
      Printf.printf "    %8s %10d %8.1f %8d %8d %11d %9d %9d\n"
        (if s.ch_instant then "on" else "off")
        s.ch_committed s.ch_txn_per_sec s.ch_aborted s.ch_p99_us
        s.ch_outage_committed s.ch_open_us s.ch_ttfc_us)
    [ chaos_off; chaos_on ];
  Printf.printf
    "  (outage txn = commits within 1s of the kill; open us = recovery \
     time\n\
    \   before the node serves; ttfc us = restart start to the wounded \
     shard's\n\
    \   first commit)\n";
  write_json pairs ~chaos_off ~chaos_on;
  Printf.printf
    "  (single-shard transactions commit locally and scale with shard \
     count;\n\
    \   cross-shard transactions pay tree 2PC — batching trims its wire \
     messages;\n\
    \   curve written to %s)\n"
    json_file
