(* Smoke and determinism test of the benchmark: every workload, cut to a
   10-virtual-second window, must pass its checks, emit exactly the
   metrics BENCHMARK.json lists, reproduce its virtual metrics from the
   same seed, and give a traced rep that matches the untraced one with
   spans that tile every transaction. *)

open Tabs_benchmark

let short (w : Workload.t) =
  {
    w with
    horizon_s = 10;
    warmup_s = 2;
    crash_every_s = Option.map (fun _ -> 3) w.crash_every_s;
  }

let failed_checks (r : Bench.report) =
  List.filter_map (fun (n, ok) -> if ok then None else Some n) r.checks

let names (r : Bench.report) = List.map fst r.metrics

let check_workload (w : Workload.t) () =
  let w = short w in
  let inputs = Workload.generate w ~seed:3 in
  let e2e = Bench.end_to_end w inputs ~seed:3 ~seconds:0 ~min_reps:1 in
  Alcotest.(check (list string)) "end-to-end checks pass" [] (failed_checks e2e);
  Alcotest.(check (list string))
    "end-to-end metrics"
    (List.map (fun (m : Catalog.metric) -> m.name) Catalog.end_to_end)
    (names e2e);
  let layers, spans = Bench.per_layer w inputs ~seed:3 ~seconds:0 ~min_reps:1 in
  Alcotest.(check (list string)) "traced checks pass" [] (failed_checks layers);
  Alcotest.(check bool) "traced rep made the span check" true
    (List.mem_assoc "spans_tile_each_txn" layers.checks);
  Alcotest.(check bool) "spans recorded" true (spans <> []);
  Alcotest.(check (list string))
    "per-layer metrics"
    (List.sort compare (List.map (fun (m : Catalog.metric) -> m.name) Catalog.per_layer))
    (List.sort compare (names layers));
  let first = Rep.run w inputs ~seed:3 ~traced:false in
  let again = Rep.run w inputs ~seed:3 ~traced:false in
  Alcotest.(check bool) "same seed, same virtual metrics and counts" true
    (again.fingerprint = first.fingerprint);
  let other = Rep.run w (Workload.generate w ~seed:4) ~seed:4 ~traced:false in
  Alcotest.(check bool) "another seed, other inputs" true
    (other.fingerprint <> first.fingerprint)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let count s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let catalog_matches_benchmark_json () =
  let json = read_file "../../BENCHMARK.json" in
  let entry (m : Catalog.metric) =
    Printf.sprintf {|{"name": "%s", "unit": "%s", "better": "%s"|} m.name m.unit_
      (match m.better with Catalog.Lower -> "lower" | Catalog.Higher -> "higher")
  in
  List.iter
    (fun m -> Alcotest.(check bool) (entry m) true (contains json (entry m ^ {|, "bound": |})))
    Catalog.end_to_end;
  List.iter
    (fun m -> Alcotest.(check bool) (entry m) true (contains json (entry m ^ "}")))
    Catalog.per_layer;
  Alcotest.(check int) "no metric outside the catalog"
    (List.length Catalog.end_to_end + List.length Catalog.per_layer)
    (count json {|"unit":|});
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check bool) w.name true (contains json (Printf.sprintf {|{"name": "%s", "why"|} w.name)))
    Workload.all

let () =
  Alcotest.run "benchmark"
    [
      ( "benchmark.smoke",
        Alcotest.test_case "catalog matches BENCHMARK.json" `Quick
          catalog_matches_benchmark_json
        :: List.map
             (fun (w : Workload.t) -> Alcotest.test_case w.name `Quick (check_workload w))
             Workload.all );
    ]
