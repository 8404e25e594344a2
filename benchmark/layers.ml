(* Per-layer counters.

   [snapshot] reads the counters the layers already keep, through
   public accessors; a run's counts are the difference of two
   snapshots. The trace [sink] folds the events the layers emit into
   running totals as they arrive and buffers nothing: a long run emits
   millions of events. *)

open Tabs_sim
open Tabs_core

type snapshot = {
  events : int;
  local_calls : float;
  remote_calls : float;
  stable_writes : float;
  random_io : float;
  wire_messages : int;
  carried_frames : int;
  piggybacked_acks : int;
  dropped : int;
  pages_written : int;
  ondemand_pages : int;
  trickle_pages : int;
  cpu_tm : int;
  cpu_ds : int;
  cpu_cm : int;
  cpu_rm : int;
  totals : System.totals;
}

let snapshot sys =
  let engine = System.engine sys in
  let m = Engine.metrics engine in
  let msgs = Metrics.msgs m in
  let nodes = List.init Workload.shards Fun.id in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 nodes in
  let recovery f = sum (fun s -> f (Metrics.recovery m ~node:s)) in
  let cpu process = Engine.cpu_time engine ~process in
  {
    events = Engine.events_processed engine;
    local_calls = Metrics.weight m Cost_model.Data_server_call;
    remote_calls = Metrics.weight m Cost_model.Inter_node_data_server_call;
    stable_writes = Metrics.weight m Cost_model.Stable_storage_write;
    random_io = Metrics.weight m Cost_model.Random_paged_io;
    wire_messages = msgs.wire_messages;
    carried_frames = msgs.carried_frames;
    piggybacked_acks = msgs.piggybacked_acks;
    dropped = Tabs_net.Network.dropped (Cluster.network (System.cluster sys));
    pages_written =
      sum (fun s -> Tabs_storage.Disk.pages_written (Node.disk (System.node sys s)));
    ondemand_pages = recovery (fun r -> r.Metrics.ondemand_pages);
    trickle_pages = recovery (fun r -> r.Metrics.trickle_pages);
    cpu_tm = cpu "tm";
    cpu_ds = cpu "ds";
    cpu_cm = cpu "cm";
    cpu_rm = cpu "rm";
    totals = System.totals sys;
  }

(* Mean live log size over the nodes, in bytes. *)
let live_log_bytes sys =
  let total =
    List.fold_left
      (fun acc s ->
        acc
        + Tabs_storage.Stable.total_bytes
            (Tabs_wal.Log_manager.stable (Node.log (System.node sys s))))
      0
      (List.init Workload.shards Fun.id)
  in
  float_of_int total /. float_of_int Workload.shards

type traced = {
  mutable lock_waits : int;
  mutable lock_wait_us : int;
  lock_wait : Tabs_obs.Hist.t;
  mutable forces : int;
  mutable forced_records : int;
  mutable page_outs : int;
  mutable page_out_us : int;
  mutable retransmits : int;
  phase1_open : (int * Tabs_wal.Tid.t, int * int) Hashtbl.t;
      (** (node, tid) -> (prepare sent at, votes still due) *)
  phase1 : Tabs_obs.Hist.t;
  drain : Tabs_obs.Hist.t;
  drained_for : int array;  (** per node: the restart whose drain was sampled *)
}

let traced () =
  {
    lock_waits = 0;
    lock_wait_us = 0;
    lock_wait = Tabs_obs.Hist.create ();
    forces = 0;
    forced_records = 0;
    page_outs = 0;
    page_out_us = 0;
    retransmits = 0;
    phase1_open = Hashtbl.create 64;
    phase1 = Tabs_obs.Hist.create ();
    drain = Tabs_obs.Hist.create ();
    drained_for = Array.make Workload.shards (-1);
  }

(* [restart_began.(node)] is the start of the node's latest restart
   (the client keeps it), so the first fully drained on-demand replay
   after it yields that restart's drain time. *)
let sink st ~restart_began : Trace.sink =
 fun ~time ev ->
  match ev with
  | Tabs_lock.Lock_manager.Lock_wait _ -> st.lock_waits <- st.lock_waits + 1
  | Tabs_lock.Lock_manager.Lock_granted { waited; _ }
  | Tabs_lock.Lock_manager.Lock_timed_out { waited; _ } ->
      st.lock_wait_us <- st.lock_wait_us + waited;
      Tabs_obs.Hist.add st.lock_wait waited
  | Tabs_wal.Log_manager.Log_force { records; _ } ->
      st.forces <- st.forces + 1;
      st.forced_records <- st.forced_records + records
  | Tabs_accent.Vm.Page_out { elapsed; _ } ->
      st.page_outs <- st.page_outs + 1;
      st.page_out_us <- st.page_out_us + elapsed
  | Tabs_net.Comm_mgr.Session_retransmit _ -> st.retransmits <- st.retransmits + 1
  | Tabs_tm.Txn_mgr.Prepare_sent { node; tid; dests } ->
      Hashtbl.replace st.phase1_open (node, tid) (time, List.length dests)
  | Tabs_tm.Txn_mgr.Vote_received { node; tid; _ } -> (
      match Hashtbl.find_opt st.phase1_open (node, tid) with
      | Some (sent, 1) ->
          Hashtbl.remove st.phase1_open (node, tid);
          Tabs_obs.Hist.add st.phase1 (time - sent)
      | Some (sent, due) -> Hashtbl.replace st.phase1_open (node, tid) (sent, due - 1)
      | None -> ())
  | Tabs_recovery.Recovery_mgr.Rm_ondemand_redo { node; pending = 0; _ } ->
      let began = restart_began.(node) in
      if began >= 0 && st.drained_for.(node) <> began then begin
        st.drained_for.(node) <- began;
        Tabs_obs.Hist.add st.drain (time - began)
      end
  | _ -> ()

let ms us = float_of_int us /. 1000.

let p50 l = Tabs_obs.Hist.p50 (Tabs_obs.Hist.of_list l)

(* The per-layer metrics of one run that read only virtual time and
   counts, from the snapshots around it ([live_log] taken after the
   arrival window drained) and the client; see {!Catalog.per_layer}. *)
let counted ~(before : snapshot) ~(after : snapshot) ~live_log (d : Client.t) =
  let commits = float_of_int (max 1 d.committed) in
  let per_commit x = x /. commits in
  let per_commit_i x = float_of_int x /. commits in
  let b = before.totals and a = after.totals in
  let restarts = d.restarts in
  let n_restarts = float_of_int (max 1 (List.length restarts)) in
  let txns = float_of_int (max 1 (List.length d.txns)) in
  let count p = float_of_int (List.length (List.filter p d.txns)) in
  let wire = after.wire_messages - before.wire_messages in
  [
    ("engine.events_per_commit", per_commit_i (after.events - before.events));
    ("txn_mgr.distributed_frac", per_commit_i (a.distributed - b.distributed));
    ("txn_mgr.cpu_ms_per_commit", per_commit (ms (after.cpu_tm - before.cpu_tm)));
    ("servers.cpu_ms_per_commit", per_commit (ms (after.cpu_ds - before.cpu_ds)));
    ("rpc.remote_calls_per_commit", per_commit (after.remote_calls -. before.remote_calls));
    ("rpc.local_calls_per_commit", per_commit (after.local_calls -. before.local_calls));
    ("lock_manager.timeouts_per_1k", 1000. *. per_commit_i (a.lock_timeouts - b.lock_timeouts));
    ( "log_manager.stable_writes_per_commit",
      per_commit (after.stable_writes -. before.stable_writes) );
    ("log_manager.live_log_kb", live_log /. 1024.);
    ( "group_commit.batch_mean",
      if a.batches = b.batches then 0.
      else float_of_int (a.coalesced - b.coalesced) /. float_of_int (a.batches - b.batches) );
    ("vm.faults_per_commit", per_commit_i (a.faults - b.faults));
    ("disk.pages_written_per_commit", per_commit_i (after.pages_written - before.pages_written));
    ("disk.random_io_per_commit", per_commit (after.random_io -. before.random_io));
    ("checkpointer.cycles", float_of_int (a.cycles - b.cycles));
    ("checkpointer.pages_written_per_commit", per_commit_i (a.ck_pages - b.ck_pages));
    ("checkpointer.reclaimed_per_commit", per_commit_i (a.reclaimed - b.reclaimed));
    ("comm_mgr.wire_msgs_per_commit", per_commit_i wire);
    ( "comm_mgr.frames_per_wire_msg",
      if wire = 0 then 0.
      else float_of_int (after.carried_frames - before.carried_frames) /. float_of_int wire );
    ( "comm_mgr.piggybacked_acks_per_commit",
      per_commit_i (after.piggybacked_acks - before.piggybacked_acks) );
    ("comm_mgr.cpu_ms_per_commit", per_commit (ms (after.cpu_cm - before.cpu_cm)));
    ("network.dropped", float_of_int (after.dropped - before.dropped));
    ("recovery_mgr.open_ms_p50", ms (p50 (List.map (fun (r : Client.restart) -> r.open_us) restarts)));
    ("recovery_mgr.ttfc_ms_p50", ms (p50 d.ttfc));
    ("recovery_mgr.records_scanned_p50", float_of_int (p50 (List.map (fun (r : Client.restart) -> r.scanned) restarts)));
    ( "recovery_mgr.losers_per_restart",
      float_of_int (List.fold_left (fun acc (r : Client.restart) -> acc + r.losers) 0 restarts)
      /. n_restarts );
    ( "recovery_mgr.in_doubt_per_restart",
      float_of_int (List.fold_left (fun acc (r : Client.restart) -> acc + r.in_doubt) 0 restarts)
      /. n_restarts );
    ("recovery_mgr.ondemand_pages", float_of_int (after.ondemand_pages - before.ondemand_pages));
    ("recovery_mgr.trickle_pages", float_of_int (after.trickle_pages - before.trickle_pages));
    ("recovery_mgr.cpu_ms_per_commit", per_commit (ms (after.cpu_rm - before.cpu_rm)));
    ("admission.waited_frac", count (fun (t : Client.txn) -> t.waited) /. txns);
    ("admission.retried_frac", float_of_int d.retried /. txns);
    ("admission.in_flight_p99", float_of_int (Tabs_obs.Hist.p99 d.in_flight_at_arrival));
  ]

(* The per-layer metrics only a traced run can give: from the sink and
   from the benchmark's own spans. *)
let from_trace st (d : Client.t) =
  let commits = float_of_int (max 1 d.committed) in
  let spans name =
    Tabs_obs.Hist.of_list
      (List.filter_map
         (fun (s : Client.span) -> if s.name = name then Some (s.stop - s.start) else None)
         d.spans)
  in
  let ops = spans "op" and commit = spans "commit" in
  let pct h p = ms (Tabs_obs.Hist.percentile h p) in
  [
    ("txn_mgr.commit_ms_p50", pct commit 50.);
    ("txn_mgr.commit_ms_p99", pct commit 99.);
    ("txn_mgr.phase1_ms_p50", pct st.phase1 50.);
    ("servers.op_ms_p50", pct ops 50.);
    ("servers.op_ms_p99", pct ops 99.);
    ("lock_manager.waits_per_commit", float_of_int st.lock_waits /. commits);
    ("lock_manager.wait_ms_per_commit", ms st.lock_wait_us /. commits);
    ("lock_manager.wait_ms_p99", pct st.lock_wait 99.);
    ("log_manager.forces_per_commit", float_of_int st.forces /. commits);
    ( "log_manager.records_per_force",
      if st.forces = 0 then 0. else float_of_int st.forced_records /. float_of_int st.forces );
    ("vm.page_outs_per_commit", float_of_int st.page_outs /. commits);
    ( "vm.page_out_ms_mean",
      if st.page_outs = 0 then 0. else ms st.page_out_us /. float_of_int st.page_outs );
    ("comm_mgr.retransmits", float_of_int st.retransmits);
    ("recovery_mgr.drain_ms_p50", pct st.drain 50.);
  ]
