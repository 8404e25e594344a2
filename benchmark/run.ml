(* Benchmark command line:

     run.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--spans FILE] [--slo]

   Prints a details line and then, as the last line of standard output,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   Exits 1 when a correctness check fails. [--slo] instead searches for
   the workload's highest offered load meeting the latency limit. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spans = ref None and slo = ref false in
  let names = String.concat ", " (List.map (fun (w : Tabs_benchmark.Workload.t) -> w.name) Tabs_benchmark.Workload.all) in
  let usage = "run.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--slo]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ names);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S time budget for the reps (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.String (fun f -> spans := Some f), "FILE write the traced rep's spans as JSON lines");
      ("--slo", Arg.Set slo, " search for the highest offered load meeting the p99 limit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Tabs_benchmark.Workload.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload names;
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  | Some w when !slo ->
      Printf.printf "{\"workload\": %S, \"seed\": %d, \"max_tps_at_slo\": %s}\n" w.name !seed
        (Tabs_benchmark.Bench.number (Tabs_benchmark.Bench.max_tps_at_slo w ~seed:!seed))
  | Some w ->
      let ok =
        Tabs_benchmark.Bench.main w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~spans_file:!spans
      in
      exit (if ok then 0 else 1)
