(* One rep: set up a fresh cluster, run the arrival window and its
   drain, then check the outputs.

   The run — window and drain — is what the CPU clock times and what
   the counters cover. Set-up (cluster creation, deployment, preload)
   is timed on its own; the checks after the run are not timed. *)

open Tabs_core

let drain_s = 60

let probe_gap_s = 10

let check_s = 60

type result = {
  setup_cpu : float;  (** seconds *)
  run_cpu : float;  (** seconds *)
  minor_words : float;
  major_gcs : int;
  run_events : int;
  committed : int;
  attempted : int;
  failed : int;
  samples : int;  (** latency samples: committed transactions due after warm-up *)
  restarts : int;  (** during the run, not counting the probes *)
  virtual_metrics : (string * float) list;
      (** the end-to-end metrics read off virtual time *)
  counted : (string * float) list;  (** per-layer counts, see {!Layers.counted} *)
  traced : (string * float) list;  (** {!Layers.from_trace}; empty untraced *)
  checks : (string * bool) list;
  fingerprint : (string * float) list;
      (** everything a deterministic rerun must reproduce exactly *)
  spans : Client.span list;
}

let cpu () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let ms us = float_of_int us /. 1000.

(* Read back every key the run could have changed, in one transaction
   per shard, and compare with what the client saw commit. *)
let check_data (w : Workload.t) sys (d : Client.t) =
  let by_shard = Array.make Workload.shards [] in
  let placement = Workload.placement w in
  let add k =
    let s = Placement.shard_of placement ~server:(Workload.keyspace w) ~key:k in
    by_shard.(s) <- k :: by_shard.(s)
  in
  if Workload.accounts w then for k = w.keys - 1 downto 0 do add k done
  else Hashtbl.iter (fun k () -> add k) d.written;
  let read = Array.make Workload.shards None in
  Array.iteri
    (fun s keys ->
      Cluster.spawn (System.cluster sys) ~node:s (fun () ->
          match System.read_all sys s keys with
          | values -> read.(s) <- Some values
          | exception
              ( Errors.Lock_timeout _ | Errors.Deadlock _ | Errors.Transaction_is_aborted _
              | Rpc.Rpc_timeout _ ) ->
              ()))
    by_shard;
  let engine = System.engine sys in
  Cluster.run_until (System.cluster sys)
    ~time:(Tabs_sim.Engine.now engine + (check_s * 1_000_000));
  let values =
    Array.fold_left
      (fun acc r -> match (acc, r) with Some acc, Some l -> Some (l @ acc) | _ -> None)
      (Some []) read
  in
  match values with
  | None -> [ ("data_read_back", false) ]
  | Some values when Workload.accounts w ->
      let total = List.fold_left (fun acc (_, v) -> acc + v) 0 values in
      [
        ("data_read_back", true);
        ("balances_conserved", total = w.keys * Workload.initial_balance);
        ("balances_non_negative", List.for_all (fun (_, v) -> v >= 0) values);
      ]
  | Some values ->
      [
        ("data_read_back", true);
        ( "last_committed_stamp_survives",
          List.for_all
            (fun (k, v) ->
              v = Option.value (Hashtbl.find_opt d.expected k) ~default:0)
            values );
      ]

let run (w : Workload.t) (inputs : Workload.inputs) ~seed ~traced =
  Gc.full_major ();
  let c0 = cpu () in
  let sys = System.setup w ~seed in
  let setup_cpu = cpu () -. c0 in
  let engine = System.engine sys and cluster = System.cluster sys in
  let d = Client.create sys ~tracing:traced in
  let st = Layers.traced () in
  if traced then
    Tabs_sim.Engine.set_tracer engine
      (Some (Layers.sink st ~restart_began:d.restart_began));
  let start = Tabs_sim.Engine.now engine in
  let before = Layers.snapshot sys in
  let gc0 = Gc.quick_stat () in
  let c1 = cpu () in
  Client.schedule d w inputs ~start;
  let drained = start + ((w.horizon_s + drain_s) * 1_000_000) in
  Cluster.run_until cluster ~time:drained;
  let run_cpu = cpu () -. c1 in
  let gc1 = Gc.quick_stat () in
  let after = Layers.snapshot sys in
  Tabs_sim.Engine.set_tracer engine None;
  let committed = d.committed in
  let counted = Layers.counted ~before ~after ~live_log:(Layers.live_log_bytes sys) d in
  let traced_metrics = if traced then Layers.from_trace st d else [] in
  let lat = d.latencies in
  let window_s = float_of_int (w.horizon_s - w.warmup_s) in
  let virtual_metrics =
    [
      ("goodput_tps", float_of_int d.committed_sampled /. window_s);
      ("mean_ms", ms d.latency_sum /. float_of_int (max 1 (Tabs_obs.Hist.count lat)));
      ("p99_ms", ms (Tabs_obs.Hist.percentile lat 99.));
      ("p999_ms", ms (Tabs_obs.Hist.percentile lat 99.9));
    ]
  in
  (* The probes: crash and restart every node in turn, each restart
     followed by one transaction on its shard, so the read-back below
     also checks that committed work survives a crash. *)
  for s = 0 to Workload.shards - 1 do
    Tabs_sim.Engine.at engine
      ~delay:(s * probe_gap_s * 1_000_000)
      (fun () -> Client.probe d inputs s)
  done;
  Cluster.run_until cluster
    ~time:(drained + (Workload.shards * probe_gap_s * 1_000_000));
  let txns = d.txns in
  let all p = List.for_all p txns in
  let shards = List.init Workload.shards Fun.id in
  let data = check_data w sys d in
  let checks =
    [
      ("every_txn_has_verdict", all (fun (t : Client.txn) -> t.outcome <> Client.Pending));
      ( "started_at_due",
        all (fun (t : Client.txn) -> t.started >= t.due && (t.waited || t.started = t.due)) );
      ( "every_restart_opened_and_committed",
        let n = List.length inputs.crashes + Workload.shards in
        List.length d.restarts = n && List.length d.ttfc = n );
    ]
    @ data
    @ [
        ( "no_in_doubt",
          List.for_all (fun s -> Tabs_tm.Txn_mgr.in_doubt (Node.tm (System.node sys s)) = []) shards );
        ( "no_resolution_abandoned",
          (Tabs_sim.Metrics.tm (Tabs_sim.Engine.metrics engine)).resolutions_abandoned = 0 );
        ( "no_lock_held",
          List.for_all (fun s -> Tabs_lock.Lock_manager.total_holds (System.lock_manager sys s) = 0) shards );
      ]
    @ if traced then [ ("spans_tile_each_txn", d.tiling_errors = 0) ] else []
  in
  let attempted = List.length txns in
  let failed = List.length (List.filter (fun (t : Client.txn) -> t.outcome <> Client.Committed) txns) in
  let run_events = after.events - before.events in
  {
    setup_cpu;
    run_cpu;
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_gcs = gc1.major_collections - gc0.major_collections;
    run_events;
    committed;
    attempted;
    failed;
    samples = Tabs_obs.Hist.count lat;
    restarts = List.length inputs.crashes;
    virtual_metrics;
    counted;
    traced = traced_metrics;
    checks;
    fingerprint =
      virtual_metrics @ counted
      @ [
          ("events", float_of_int run_events);
          ("clock", float_of_int (Tabs_sim.Engine.now engine));
          ("attempted", float_of_int attempted);
          ("failed", float_of_int failed);
        ];
    spans = d.spans;
  }
