(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json lists the same metrics (and, for the end-to-end ones,
   their regression bounds); the smoke test checks that the two agree
   and that a run emits exactly these names. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "goodput_tps" "txn/s" Higher;
    m "mean_ms" "ms" Lower;
    m "p99_ms" "ms" Lower;
    m "p999_ms" "ms" Lower;
    m "sim_commits_per_cpu_s" "commits/CPU-s" Higher;
    m "setup_s" "s" Lower;
    m "peak_heap_mb" "MiB" Lower;
  ]

let per_layer =
  [
    m "engine.events_per_commit" "count" Lower;
    m "engine.minor_words_per_commit" "words" Lower;
    m "engine.major_gcs" "count" Lower;
    m "engine.cpu_us_per_event" "us" Lower;
    m "txn_mgr.commit_ms_p50" "ms" Lower;
    m "txn_mgr.commit_ms_p99" "ms" Lower;
    m "txn_mgr.phase1_ms_p50" "ms" Lower;
    m "txn_mgr.distributed_frac" "fraction" Lower;
    m "txn_mgr.cpu_ms_per_commit" "ms" Lower;
    m "servers.op_ms_p50" "ms" Lower;
    m "servers.op_ms_p99" "ms" Lower;
    m "servers.cpu_ms_per_commit" "ms" Lower;
    m "rpc.remote_calls_per_commit" "count" Lower;
    m "rpc.local_calls_per_commit" "count" Lower;
    m "lock_manager.waits_per_commit" "count" Lower;
    m "lock_manager.wait_ms_per_commit" "ms" Lower;
    m "lock_manager.wait_ms_p99" "ms" Lower;
    m "lock_manager.timeouts_per_1k" "count" Lower;
    m "log_manager.forces_per_commit" "count" Lower;
    m "log_manager.records_per_force" "count" Higher;
    m "log_manager.stable_writes_per_commit" "count" Lower;
    m "log_manager.live_log_kb" "KiB" Lower;
    m "group_commit.batch_mean" "count" Higher;
    m "vm.faults_per_commit" "count" Lower;
    m "vm.page_outs_per_commit" "count" Lower;
    m "vm.page_out_ms_mean" "ms" Lower;
    m "disk.pages_written_per_commit" "count" Lower;
    m "disk.random_io_per_commit" "count" Lower;
    m "checkpointer.cycles" "count" Lower;
    m "checkpointer.pages_written_per_commit" "count" Lower;
    m "checkpointer.reclaimed_per_commit" "count" Higher;
    m "comm_mgr.wire_msgs_per_commit" "count" Lower;
    m "comm_mgr.frames_per_wire_msg" "count" Higher;
    m "comm_mgr.piggybacked_acks_per_commit" "count" Higher;
    m "comm_mgr.retransmits" "count" Lower;
    m "comm_mgr.cpu_ms_per_commit" "ms" Lower;
    m "network.dropped" "count" Lower;
    m "recovery_mgr.open_ms_p50" "ms" Lower;
    m "recovery_mgr.ttfc_ms_p50" "ms" Lower;
    m "recovery_mgr.records_scanned_p50" "count" Lower;
    m "recovery_mgr.losers_per_restart" "count" Lower;
    m "recovery_mgr.in_doubt_per_restart" "count" Lower;
    m "recovery_mgr.ondemand_pages" "count" Lower;
    m "recovery_mgr.trickle_pages" "count" Lower;
    m "recovery_mgr.drain_ms_p50" "ms" Lower;
    m "recovery_mgr.cpu_ms_per_commit" "ms" Lower;
    m "admission.waited_frac" "fraction" Lower;
    m "admission.retried_frac" "fraction" Lower;
    m "admission.in_flight_p99" "count" Lower;
    m "trace_overhead_frac" "fraction" Lower;
  ]

let unit_of name =
  (List.find (fun m -> m.name = name) (end_to_end @ per_layer)).unit_
