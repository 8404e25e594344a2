(* Open-loop workload generator for scale-out benches.

   Everything before this drove TABS with closed-loop uniform workers: N
   fibers each issuing the next transaction only after the last one
   finished, so offered load sagged exactly when the system slowed down
   — the coordinated-omission trap. This generator is the opposite, the
   millions-of-users shape:

   - arrivals are an open-loop Poisson process at a fixed offered load
     (transactions per virtual second), independent of completions;
   - keys are Zipfian-popular (tunable skew theta), so some shards see
     hot keys;
   - each arrival is single-shard (one write at its key's home shard,
     committing locally) with probability [1 - cross_frac], or
     cross-shard (writes on two different shards, paying tree 2PC) with
     probability [cross_frac];
   - the transaction runs on its primary key's home node — the router
     sends it only to the shards its keys name;
   - a bounded admission queue per node sheds arrivals beyond
     [max_outstanding] in flight (counted, never silently dropped), so
     an overloaded configuration reports shed load instead of hanging
     the simulation.

   Latencies are begin-to-verdict virtual time, split single/cross —
   the cross-shard surcharge is the measured "2PC tax". *)

open Tabs_sim
open Tabs_core
open Tabs_servers

type config = {
  shards : int;
  theta : float; (* Zipf skew, [0, 1) *)
  cross_frac : float; (* fraction of two-shard transactions *)
  offered_load : float; (* transactions per virtual second *)
  horizon : int; (* arrival window, virtual microseconds *)
  keys : int;
  seed : int;
  max_outstanding : int; (* per-node admission bound *)
}

let default =
  {
    shards = 1;
    theta = 0.9;
    cross_frac = 0.15;
    offered_load = 240.;
    horizon = 10_000_000;
    keys = 16_384;
    seed = 42;
    max_outstanding = 64;
  }

type stats = {
  config : config;
  offered : int; (* arrivals generated *)
  admitted : int;
  shed : int; (* dropped by admission control *)
  committed : int;
  aborted : int;
  single_committed : int;
  cross_committed : int;
  txn_per_sec : float; (* committed over the arrival window *)
  p50_single_us : int;
  p95_single_us : int;
  p50_cross_us : int;
  p95_cross_us : int;
  wire_messages : int;
  msgs_per_cross_commit : float;
  per_shard_committed : int array;
  per_shard_stable_writes : float array;
  events : int; (* engine events processed by the run *)
}

(* One Poisson inter-arrival gap in microseconds (at least 1). *)
let poisson_gap rng ~offered_load =
  let u = Rng.float rng in
  let gap = -.log (1. -. u) *. 1_000_000. /. offered_load in
  max 1 (int_of_float gap)

(* Scrambled Zipfian (YCSB-style): the Zipf generator hands back a
   popularity *rank* with rank 0 hottest, and a range-partitioned
   keyspace would put every hot rank on shard 0. Hashing the rank onto
   the keyspace keeps the popularity distribution but spreads the hot
   keys across shards — the placement-neutral workload the scale-out
   claim is about. (Hash collisions merely merge a few ranks.) *)
let scramble ~keys rank =
  let x = (rank + 1) * 0x27220A95 in
  let x = x lxor (x lsr 15) in
  let x = x * 0x2545F491 in
  let x = x lxor (x lsr 13) in
  (x land max_int) mod keys

(* One node per shard, with the given layers. *)
let cluster ?group_commit ?checkpointing ?comm_batching ?profile config =
  Cluster.create ~nodes:config.shards ?group_commit ?checkpointing
    ?comm_batching ?profile ()

(* [run_on cluster config] drives [config]'s load through [cluster],
   which {!cluster} built for it. *)
let run_on cluster config =
  let engine = Cluster.engine cluster in
  let arr = Sharded.Int_array.deploy cluster ~name:"k" ~keys:config.keys () in
  let rng = Rng.create ~seed:config.seed in
  let zipf = Rng.Zipf.create ~n:config.keys ~theta:config.theta in
  let offered = ref 0 and shed = ref 0 and admitted = ref 0 in
  let committed = ref 0 and aborted = ref 0 in
  let single_committed = ref 0 and cross_committed = ref 0 in
  let single_lat = ref [] and cross_lat = ref [] in
  let per_shard_committed = Array.make config.shards 0 in
  let outstanding = Array.make (Cluster.node_count cluster) 0 in
  let msgs0 = (Metrics.msgs (Engine.metrics engine)).Metrics.wire_messages in
  let spawn_txn ~primary_key ~secondary_key =
    let loc = Sharded.Int_array.locate arr primary_key in
    let gateway = loc.Placement.node in
    if outstanding.(gateway) >= config.max_outstanding then incr shed
    else begin
      incr admitted;
      outstanding.(gateway) <- outstanding.(gateway) + 1;
      let node = Cluster.node cluster gateway in
      let tm = Node.tm node and rpc = Node.rpc node in
      Cluster.spawn cluster ~node:gateway (fun () ->
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
              per_shard_committed.(loc.Placement.shard) <-
                per_shard_committed.(loc.Placement.shard) + 1;
              let lat = Engine.now engine - t0 in
              if secondary_key = None then begin
                incr single_committed;
                single_lat := lat :: !single_lat
              end
              else begin
                incr cross_committed;
                cross_lat := lat :: !cross_lat
              end
          | exception Errors.Lock_timeout _ -> incr aborted
          | exception Errors.Transaction_is_aborted _ -> incr aborted
          | exception Rpc.Rpc_timeout _ -> incr aborted);
          outstanding.(gateway) <- outstanding.(gateway) - 1)
    end
  in
  let sample_key () = scramble ~keys:config.keys (Rng.Zipf.sample zipf rng) in
  let pick_cross_pair () =
    (* primary from the Zipfian distribution; secondary re-drawn until
       it lands on another shard (bounded: give up after 32 tries on
       pathological skew and fall back to single-shard) *)
    let a = sample_key () in
    let sa = (Sharded.Int_array.locate arr a).Placement.shard in
    let rec draw tries =
      if tries = 0 then None
      else begin
        let b = sample_key () in
        if (Sharded.Int_array.locate arr b).Placement.shard <> sa && b <> a
        then Some b
        else draw (tries - 1)
      end
    in
    (a, draw 32)
  in
  let rec arrival () =
    if Engine.now engine < config.horizon then begin
      incr offered;
      let cross =
        config.shards > 1 && Rng.bool rng ~p:config.cross_frac
      in
      if cross then begin
        let a, b = pick_cross_pair () in
        spawn_txn ~primary_key:a ~secondary_key:b
      end
      else spawn_txn ~primary_key:(sample_key ()) ~secondary_key:None;
      Engine.at engine
        ~delay:(poisson_gap rng ~offered_load:config.offered_load)
        arrival
    end
  in
  Engine.at engine ~delay:(poisson_gap rng ~offered_load:config.offered_load)
    arrival;
  (* drain: admitted transactions finish well before 3x the arrival
     window unless something is wedged *)
  Cluster.run_until cluster ~time:(3 * config.horizon);
  let wire_messages =
    (Metrics.msgs (Engine.metrics engine)).Metrics.wire_messages - msgs0
  in
  let metrics = Engine.metrics engine in
  let hist l = Tabs_obs.Hist.of_list l in
  let single_h = hist !single_lat and cross_h = hist !cross_lat in
  {
    config;
    offered = !offered;
    admitted = !admitted;
    shed = !shed;
    committed = !committed;
    aborted = !aborted;
    single_committed = !single_committed;
    cross_committed = !cross_committed;
    txn_per_sec =
      float_of_int !committed /. (float_of_int config.horizon /. 1_000_000.);
    p50_single_us = Tabs_obs.Hist.p50 single_h;
    p95_single_us = Tabs_obs.Hist.p95 single_h;
    p50_cross_us = Tabs_obs.Hist.p50 cross_h;
    p95_cross_us = Tabs_obs.Hist.p95 cross_h;
    wire_messages;
    msgs_per_cross_commit =
      (if !cross_committed = 0 then 0.
       else float_of_int wire_messages /. float_of_int !cross_committed);
    per_shard_committed;
    per_shard_stable_writes =
      Array.init config.shards (fun s ->
          Metrics.node_weight metrics
            ~node:
              (Topology.node_of_shard (Cluster.topology cluster) s)
            Cost_model.Stable_storage_write);
    events = Engine.events_processed engine;
  }

let run ?group_commit ?checkpointing ?comm_batching ?profile config =
  run_on (cluster ?group_commit ?checkpointing ?comm_batching ?profile config) config
