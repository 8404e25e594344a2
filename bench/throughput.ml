(* Throughput exploration — the direction Section 7 leaves open: "we
   would like to develop a performance methodology for measuring and
   predicting throughput".

   The Section 5 methodology is strictly no-load latency; TABS itself
   supports concurrent transactions (locking, coroutines), so this
   harness drives N concurrent application fibers against one node and
   reports transactions/second, virtual-time latency percentiles, and
   the abort profile as N grows, under two contention regimes:

   - disjoint: each worker owns its cells (no lock conflicts); the
     stable-storage write serializes commits, so throughput saturates
     at roughly 1/force-time;
   - contended: all workers update the same handful of cells; lock
     waits and time-out aborts appear.

   Each point runs with the tracing subsystem attached: per-transaction
   spans give begin-to-commit latency and the abort-reason breakdown.
   (The Section 5 table reproductions run without tracing and are
   unaffected.) *)

open Tabs_sim
open Tabs_core
open Tabs_servers
open Tabs_obs

type point = {
  workers : int;
  committed : int;
  aborted : int;
  txn_per_sec : float;
  timeouts : int;
  forces : int; (* log forces paid over the run *)
  p50 : int; (* commit latency percentiles, virtual µs *)
  p95 : int;
  p99 : int;
  abort_reasons : (Trace.abort_reason * int) list;
}

let run_point ?group_commit ~contended ~workers () =
  let cluster = Cluster.create ~nodes:1 ?group_commit () in
  let node = Cluster.node cluster 0 in
  (* disjoint workers stride one page (64 cells) each; size the array for
     however many were asked for *)
  let cells = max 1024 (workers * 64) in
  let arr =
    Int_array_server.create (Node.env node) ~name:"t" ~segment:1 ~cells ()
  in
  let tm = Node.tm node in
  let engine = Cluster.engine cluster in
  let recorder = Recorder.attach engine in
  let horizon = 20_000_000 (* 20 virtual seconds *) in
  let committed = ref 0 and aborted = ref 0 in
  for w = 0 to workers - 1 do
    Cluster.spawn cluster ~node:0 (fun () ->
        let rng = Rng.create ~seed:(w + 1) in
        while Engine.now engine < horizon do
          let cell =
            if contended then Rng.int rng 4
            else (w * 64) + Rng.int rng 16
          in
          match
            Txn_lib.execute_transaction tm (fun tid ->
                let v = Int_array_server.get arr tid cell in
                Int_array_server.set arr tid cell (v + 1))
          with
          | () -> incr committed
          | exception Errors.Lock_timeout _ -> incr aborted
          | exception Errors.Transaction_is_aborted _ -> incr aborted
        done)
  done;
  Cluster.run_until cluster ~time:(2 * horizon);
  let spans = Span.of_entries (Recorder.entries recorder) in
  Recorder.detach recorder;
  let latency = Hist.of_list (Span.commit_latencies spans) in
  let timeouts =
    Tabs_lock.Lock_manager.timeouts
      (Server_lib.lock_manager (Int_array_server.server arr))
  in
  {
    workers;
    committed = !committed;
    aborted = !aborted;
    txn_per_sec =
      float_of_int !committed /. (float_of_int horizon /. 1_000_000.);
    timeouts;
    forces = Tabs_wal.Log_manager.force_count (Node.log node);
    p50 = Hist.p50 latency;
    p95 = Hist.p95 latency;
    p99 = Hist.p99 latency;
    abort_reasons = Span.abort_breakdown spans;
  }

let ms micros = float_of_int micros /. 1000.0

let reasons_string = function
  | [] -> "-"
  | reasons ->
      String.concat ","
        (List.map
           (fun (reason, n) ->
             Printf.sprintf "%s:%d" (Trace.reason_name reason) n)
           reasons)

let print_regime ~contended =
  Printf.printf "\n  %s cells:\n"
    (if contended then "contended (all workers share 4)" else "disjoint");
  Printf.printf "    %8s %10s %10s %12s %9s %9s %9s %9s  %s\n" "workers"
    "committed" "aborted" "txn/sec" "timeouts" "p50(ms)" "p95(ms)" "p99(ms)"
    "aborts-by-reason";
  List.iter
    (fun workers ->
      let p = run_point ~contended ~workers () in
      Printf.printf "    %8d %10d %10d %12.2f %9d %9.2f %9.2f %9.2f  %s\n"
        p.workers p.committed p.aborted p.txn_per_sec p.timeouts (ms p.p50)
        (ms p.p95) (ms p.p99)
        (reasons_string p.abort_reasons))
    [ 1; 2; 4; 8 ]

let print_all () =
  Printf.printf
    "\nThroughput exploration (Section 7 future work; virtual time)\n";
  Printf.printf "%s\n" (String.make 64 '-');
  print_regime ~contended:false;
  print_regime ~contended:true;
  Printf.printf
    "  (read-modify-write transactions on one node; each commit forces\n\
    \   the log once, so disjoint throughput approaches the stable-write\n\
    \   bound; contention adds lock waits and, eventually, time-outs;\n\
    \   latency percentiles are begin-to-commit spans from the trace)\n"

(* Group commit: the same disjoint workload with and without the force
   batcher. Without it the stable-storage write serializes every commit;
   with it all commits arriving within the batch window share one
   stable round, so disjoint throughput scales with the worker count
   until the window, not the force, is the bound. *)

type gc_point = { off : point; on_ : point }

let gc_config = Tabs_recovery.Group_commit.default

let gc_workers = [ 1; 2; 4; 8; 16; 32 ]

let run_gc_comparison () =
  List.map
    (fun workers ->
      {
        off = run_point ~contended:false ~workers ();
        on_ = run_point ~group_commit:gc_config ~contended:false ~workers ();
      })
    gc_workers

let forces_per_commit p =
  if p.committed = 0 then 0.
  else float_of_int p.forces /. float_of_int p.committed

let speedup g =
  if g.off.txn_per_sec = 0. then 0. else g.on_.txn_per_sec /. g.off.txn_per_sec

let gc_json_file = "BENCH_group_commit.json"

let write_gc_json points =
  let oc = open_out gc_json_file in
  Printf.fprintf oc
    "{\n  \"window_us\": %d,\n  \"max_batch\": %d,\n  \"points\": [\n"
    gc_config.window gc_config.max_batch;
  List.iteri
    (fun i g ->
      Printf.fprintf oc
        "    {\"workers\": %d, \"off_txn_per_sec\": %.2f, \"on_txn_per_sec\": \
         %.2f, \"off_committed\": %d, \"on_committed\": %d, \"off_forces\": \
         %d, \"on_forces\": %d, \"speedup\": %.3f, \"on_forces_per_commit\": \
         %.4f, \"on_p95_ms\": %.2f}%s\n"
        g.off.workers g.off.txn_per_sec g.on_.txn_per_sec g.off.committed
        g.on_.committed g.off.forces g.on_.forces (speedup g)
        (forces_per_commit g.on_) (ms g.on_.p95)
        (if i = List.length points - 1 then "" else ","))
    points;
  output_string oc "  ]\n}\n";
  close_out oc

let print_group_commit () =
  Printf.printf
    "\nGroup commit: batched log forces (disjoint cells; window %d us, max \
     batch %d)\n"
    gc_config.window gc_config.max_batch;
  Printf.printf "%s\n" (String.make 64 '-');
  Printf.printf "    %8s %12s %12s %8s %10s %10s %12s %9s\n" "workers"
    "off txn/s" "on txn/s" "speedup" "off forces" "on forces" "forces/commit"
    "on p95ms";
  let points = run_gc_comparison () in
  List.iter
    (fun g ->
      Printf.printf "    %8d %12.2f %12.2f %7.2fx %10d %10d %12.4f %9.2f\n"
        g.off.workers g.off.txn_per_sec g.on_.txn_per_sec (speedup g)
        g.off.forces g.on_.forces (forces_per_commit g.on_) (ms g.on_.p95))
    points;
  write_gc_json points;
  Printf.printf
    "  (each force is one large message + one stable write per page; off:\n\
    \   every commit pays its own force; on: all commits in a window share\n\
    \   one; curve written to %s)\n"
    gc_json_file
