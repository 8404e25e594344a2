(* One invocation: repeat reps of a workload for the time budget, check
   them, and report.

   The simulation is deterministic, so every rep of a seed must agree
   exactly on every virtual-time metric and count; the virtual metrics
   are therefore read off the first rep. The CPU metrics are the median
   over the reps. Untraced, the invocation reports the end-to-end
   metrics. Traced, it alternates untraced and traced reps and reports
   the per-layer metrics: counts from the traced rep, CPU and GC figures
   from the untraced ones, and the tracing overhead between the two. *)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Run [one ()] until the budget would be overspent by another round,
   but at least [min] times; returns the results in order. *)
let repeat ~seconds ~min one =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    let acc = one () :: acc and n = n + 1 in
    let spent = Unix.gettimeofday () -. t0 in
    if n < min || spent +. (spent /. float_of_int n) <= float_of_int seconds then go acc n
    else List.rev acc
  in
  go [] 0

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  reps : int;
  samples : int;
  restarts : int;
  checks : (string * bool) list;
  rates : float list;  (** each untraced rep's commits per CPU-second *)
}

let rate (r : Rep.result) = float_of_int r.committed /. r.run_cpu

(* A check passes when it passed in every rep that made it (the span
   check exists only in traced reps). *)
let checks_of (reps : Rep.result list) =
  let first = List.hd reps in
  let names =
    List.fold_left
      (fun acc (r : Rep.result) ->
        acc @ List.filter (fun n -> not (List.mem n acc)) (List.map fst r.checks))
      [] reps
  in
  List.map
    (fun name ->
      ( name,
        List.for_all
          (fun (r : Rep.result) -> Option.value (List.assoc_opt name r.checks) ~default:true)
          reps ))
    names
  @ [
      ( "reps_agree",
        List.for_all (fun (r : Rep.result) -> r.fingerprint = first.fingerprint) reps );
    ]

let report_of ~metrics (reps : Rep.result list) =
  let first = List.hd reps in
  let checks = checks_of reps in
  {
    rates = List.map rate (List.filter (fun (r : Rep.result) -> r.traced = []) reps);
    correct = List.for_all snd checks;
    attempted = first.attempted;
    failed = first.failed;
    metrics;
    reps = List.length reps;
    samples = first.samples;
    restarts = first.restarts;
    checks;
  }

let end_to_end w inputs ~seed ~seconds ~min_reps =
  (* the heap's high-water mark after the first rep: later reps would
     only add fragmentation that depends on how many of them fit *)
  let heap = ref 0 in
  let reps =
    repeat ~seconds ~min:min_reps (fun () ->
        let r = Rep.run w inputs ~seed ~traced:false in
        if !heap = 0 then heap := (Gc.quick_stat ()).top_heap_words;
        r)
  in
  let first = List.hd reps in
  report_of reps
    ~metrics:
      (first.virtual_metrics
      @ [
          ("sim_commits_per_cpu_s", median (List.map rate reps));
          ("setup_s", median (List.map (fun (r : Rep.result) -> r.setup_cpu) reps));
          ( "peak_heap_mb",
            float_of_int (!heap * (Sys.word_size / 8)) /. 1048576. );
        ])

let per_layer w inputs ~seed ~seconds ~min_reps =
  let pairs =
    repeat ~seconds ~min:min_reps (fun () ->
        let plain = Rep.run w inputs ~seed ~traced:false in
        (plain, Rep.run w inputs ~seed ~traced:true))
  in
  let plain = List.map fst pairs and traced = List.map snd pairs in
  let first = List.hd traced in
  let per_commit f = median (List.map (fun (r : Rep.result) -> f r /. float_of_int r.committed) plain) in
  let report =
    report_of (plain @ traced)
      ~metrics:
        (first.counted @ first.traced
        @ [
            ("engine.minor_words_per_commit", per_commit (fun r -> r.minor_words));
            ("engine.major_gcs", median (List.map (fun (r : Rep.result) -> float_of_int r.major_gcs) plain));
            ( "engine.cpu_us_per_event",
              median
                (List.map (fun (r : Rep.result) -> 1e6 *. r.run_cpu /. float_of_int r.run_events) plain) );
            ("trace_overhead_frac", 1. -. (median (List.map rate traced) /. median (List.map rate plain)));
          ])
  in
  (report, first.spans)

(* The shortest decimal that reads back as [f]. *)
let number f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 15

let print_report oc (w : Workload.t) ~seed ~trace r =
  Printf.fprintf oc
    "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"reps\": %d, \"latency_samples\": %d, \
     \"restarts\": %d, \"rep_commits_per_cpu_s\": [%s], \"checks\": {%s}}\n"
    w.name seed trace r.reps r.samples r.restarts
    (String.concat ", " (List.map number r.rates))
    (String.concat ", " (List.map (fun (n, ok) -> Printf.sprintf "%S: %b" n ok) r.checks));
  Printf.fprintf oc "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) (Catalog.unit_of n))
          r.metrics))

let write_spans file spans =
  let oc = open_out file in
  List.iter
    (fun (s : Client.span) ->
      if s.id >= 0 then
        Printf.fprintf oc "{\"txn\": %d, \"name\": %S, \"start_us\": %d, \"end_us\": %d}\n" s.id s.name
          s.start s.stop
      else
        Printf.fprintf oc "{\"shard\": %d, \"name\": %S, \"start_us\": %d, \"end_us\": %d}\n"
          (-1 - s.id) s.name s.start s.stop)
    (List.rev spans);
  close_out oc

let main (w : Workload.t) ~seed ~seconds ~trace ~spans_file =
  let inputs = Workload.generate w ~seed in
  let report =
    if trace then begin
      let report, spans = per_layer w inputs ~seed ~seconds ~min_reps:1 in
      Option.iter (fun f -> write_spans f spans) spans_file;
      report
    end
    else end_to_end w inputs ~seed ~seconds ~min_reps:3
  in
  print_report stdout w ~seed ~trace report;
  report.correct

(* Highest offered load whose p99 stays within [slo_p99_ms] with at
   most 1% of transactions failed, by bisection on [0.5x, 2x] the
   nominal load to 2%, each probe a 60-virtual-second window after the
   warm-up. Used to calibrate the nominal loads. *)
let slo_p99_ms = 2_000.

let max_tps_at_slo (w : Workload.t) ~seed =
  let meets tps =
    let w = { w with tps; horizon_s = w.warmup_s + 60 } in
    let r = Rep.run w (Workload.generate w ~seed) ~seed ~traced:false in
    let p99 = List.assoc "p99_ms" r.virtual_metrics in
    Printf.eprintf "%s at %.2f tps: p99 %.0f ms, %d/%d failed%s\n%!" w.name tps p99 r.failed r.attempted
      (String.concat "" (List.map (fun (n, ok) -> if ok then "" else ", failed check " ^ n) r.checks));
    (* a backlog that has not drained leaves transactions without a
       verdict, which the p99 of committed ones would not show *)
    p99 <= slo_p99_ms
    && float_of_int r.failed <= 0.01 *. float_of_int r.attempted
    && List.for_all snd r.checks
  in
  let rec bisect lo hi = if hi -. lo <= 0.02 *. lo then lo else
      let mid = (lo +. hi) /. 2. in
      if meets mid then bisect mid hi else bisect lo mid
  in
  let lo = 0.5 *. w.tps and hi = 2. *. w.tps in
  if meets hi then hi else if not (meets lo) then 0. else bisect lo hi
