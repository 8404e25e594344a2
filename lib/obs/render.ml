open Tabs_sim

(* Human-readable trace rendering for [tabs_demo --trace]. *)

let value_to_string = function
  | Event_info.Int n -> string_of_int n
  | Event_info.Str s -> s
  | Event_info.Ints l ->
      "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

(* One line: [[    12.345 ms] event_name k=v k=v ...]. *)
let entry_line ({ time; event } : Recorder.entry) =
  let info = Event_info.inspect event in
  let fields =
    List.map
      (fun (k, v) -> Printf.sprintf "%s=%s" k (value_to_string v))
      info.fields
  in
  Printf.sprintf "[%10.3f ms] %-18s %s"
    (float_of_int time /. 1000.0)
    info.name
    (String.concat " " fields)

let dump oc entries =
  List.iter
    (fun entry ->
      output_string oc (entry_line entry);
      output_char oc '\n')
    entries

let span_summary oc spans =
  let total = List.length spans in
  let committed = Span.commit_latencies spans in
  let hist = Hist.of_list committed in
  let aborted =
    List.fold_left ( + ) 0 (List.map snd (Span.abort_breakdown spans))
  in
  let unresolved =
    List.length (List.filter (fun s -> not (Span.complete s)) spans)
  in
  Printf.fprintf oc "spans: %d begun, %d committed, %d aborted, %d unresolved\n"
    total (List.length committed) aborted unresolved;
  if Hist.count hist > 0 then
    Printf.fprintf oc
      "commit latency (virtual ms): p50=%.3f p95=%.3f p99=%.3f max=%.3f\n"
      (float_of_int (Hist.p50 hist) /. 1000.0)
      (float_of_int (Hist.p95 hist) /. 1000.0)
      (float_of_int (Hist.p99 hist) /. 1000.0)
      (float_of_int (Hist.max_value hist) /. 1000.0);
  List.iter
    (fun (reason, n) ->
      Printf.fprintf oc "aborts[%s]: %d\n" (Trace.reason_name reason) n)
    (Span.abort_breakdown spans)
