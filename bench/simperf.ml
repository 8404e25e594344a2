(* Real-time throughput of the simulator core, and the deterministic
   counters that pin it.

   Two engine-core workloads drive the hot path at the fiber counts the
   scale-out arc needs (thousands of mostly-idle sessions, dense
   delay-0 wakeups, a standing population of timers). Two full-stack
   arms run the message and scale-out benchmarks unchanged; their hot
   path is the effects-based fiber switch.

   Each arm runs once and reports simulated txns and engine events, the
   minor-heap words it allocated per txn, and wall-clock rates. Only the
   deterministic numbers are gated; wall clock depends on the host and
   is reported as a trajectory:
   - txns and events must equal the pinned values exactly — any drift
     in the simulated schedule shows up here first;
   - [Gc.minor_words] per txn, measured around the whole arm, must stay
     within [words_slack] of the reference taken when the core was last
     changed. Every ceiling sits below what the seed core allocated on
     the same arm (12,633 / 919 / 7,672 / 5,124 words per txn). A
     regression to list-append wait queues fails all four and boxed
     heap entries fail the engine-core two; a per-charge effect
     round-trip adds only ~14%, so test/test_sim.ml pins words per
     charge instead.
   This binary exits 1 when either gate fails. *)

open Tabs_sim

let json_file = "BENCH_simperf.json"

let words_slack = 1.15

(* Engine-core workloads use a "fast hardware" cost model (Table 5-5
   scaled down ~100x) so that service times stay small against the
   dispatch rate and the session population is mostly idle-waiting —
   the regime the scale-out benches live in. Costs only shape the
   busy/idle mix; wall-clock throughput is what is measured. *)
let core_model =
  Cost_model.make
    [
      (Cost_model.Small_contiguous_message, 30);
      (Cost_model.Datagram, 250);
      (Cost_model.Inter_node_data_server_call, 890);
    ]

(* what one arm's workload hands back: simulated txns and events *)
type counts = { txns : int; events : int }

type arm = {
  name : string;
  kind : string; (* "engine_core" | "full_stack" *)
  pinned : counts;
  ref_words_per_txn : float;
  measured : counts;
  minor_words : float;
  wall_s : float;
}

let per_txn a x = x /. float_of_int (max 1 a.measured.txns)

let events_per_txn a = per_txn a (float_of_int a.measured.events)

let words_per_txn a = per_txn a a.minor_words

let per_s a n = float_of_int n /. a.wall_s

let words_ceiling a = a.ref_words_per_txn *. words_slack

let ok a = a.measured = a.pinned && words_per_txn a <= words_ceiling a

(* ------------------------------------------------------------------ *)
(* messages (engine-core): one dispatch fabric, [clients] session
   fibers parked on a shared mailbox. A dispatcher delivers [per_tick]
   messages every [tick_us]; each delivery wakes the head session,
   which pays the message primitives and parks again. A standing
   population of [timer_pop] per-session timers reschedules itself in
   the far future throughout. One delivery = one simulated txn. *)

let msg_clients = 4096

let msg_nodes = 8

let msg_tick_us = 250

let msg_per_tick = 25

let msg_horizon = 1_000_000 (* 1 virtual second *)

let timer_pop = 2_000

let timer_period = 100_000

let run_messages_core () =
  let engine = Engine.create ~cost_model:core_model () in
  let mailbox : int Engine.Waitq.t = Engine.Waitq.create () in
  let txns = ref 0 in
  for i = 0 to msg_clients - 1 do
    ignore
      (Engine.spawn engine ~node:(i mod msg_nodes) (fun () ->
           while Engine.now engine < msg_horizon do
             let k = Engine.Waitq.wait mailbox in
             Engine.charge engine Cost_model.Small_contiguous_message;
             if k land 7 = 0 then Engine.charge engine Cost_model.Datagram;
             incr txns
           done))
  done;
  let next = ref 0 in
  let rec tick () =
    if Engine.now engine < msg_horizon then begin
      for _ = 1 to msg_per_tick do
        incr next;
        ignore (Engine.Waitq.signal mailbox ~engine !next)
      done;
      Engine.at engine ~delay:msg_tick_us tick
    end
  in
  Engine.at engine ~delay:msg_tick_us tick;
  for i = 0 to timer_pop - 1 do
    let rec again () =
      if Engine.now engine < msg_horizon then
        Engine.at engine ~delay:timer_period again
    in
    Engine.at engine ~delay:(1 + (i * 50 mod timer_period)) again
  done;
  Engine.run_until engine ~time:msg_horizon;
  { txns = !txns; events = Engine.events_processed engine }

(* ------------------------------------------------------------------ *)
(* scaleout (engine-core): [shards] mailboxes on [shards] nodes, each
   with its own dispatcher and session population; deliveries pay the
   inter-node primitives, and a crash/respawn cycle rotates through the
   shards exercising the epoch path (waiters of a crashed shard are
   killed on wake and replaced). *)

let sc_shards = 16

let sc_clients = 4_096 (* 256 per shard *)

let sc_tick_us = 250

let sc_per_tick = 2 (* per shard *)

let sc_horizon = 1_000_000

let sc_crash_period = 200_000

let run_scaleout_core () =
  let engine = Engine.create ~cost_model:core_model () in
  let mailboxes : int Engine.Waitq.t array =
    Array.init sc_shards (fun _ -> Engine.Waitq.create ())
  in
  let txns = ref 0 in
  let spawn_client shard =
    ignore
      (Engine.spawn engine ~node:shard (fun () ->
           while Engine.now engine < sc_horizon do
             let k = Engine.Waitq.wait mailboxes.(shard) in
             Engine.charge engine Cost_model.Inter_node_data_server_call;
             if k land 3 = 0 then Engine.charge engine Cost_model.Datagram;
             incr txns
           done))
  in
  let per_shard = sc_clients / sc_shards in
  for i = 0 to sc_clients - 1 do
    spawn_client (i mod sc_shards)
  done;
  let next = ref 0 in
  Array.iteri
    (fun shard mailbox ->
      let rec tick () =
        if Engine.now engine < sc_horizon then begin
          for _ = 1 to sc_per_tick do
            incr next;
            ignore (Engine.Waitq.signal mailbox ~engine !next)
          done;
          Engine.at engine ~delay:sc_tick_us tick
        end
      in
      Engine.at engine ~delay:((shard * 16) + sc_tick_us) tick)
    mailboxes;
  let cycle = ref 0 in
  let rec crash_tick () =
    if Engine.now engine < sc_horizon then begin
      let shard = !cycle mod sc_shards in
      incr cycle;
      Engine.crash_node engine shard;
      for _ = 1 to per_shard do
        spawn_client shard
      done;
      Engine.at engine ~delay:sc_crash_period crash_tick
    end
  in
  Engine.at engine ~delay:sc_crash_period crash_tick;
  Engine.run_until engine ~time:sc_horizon;
  { txns = !txns; events = Engine.events_processed engine }

(* ------------------------------------------------------------------ *)
(* full-stack arms: the message and scale-out benchmarks unchanged,
   cluster construction included. *)

let run_tabs_messages () =
  let p = Messages.run_point ~workers:16 () in
  { txns = p.Messages.committed; events = p.Messages.events }

let run_tabs_scaleout () =
  let s =
    Generator.run ~group_commit:Tabs_recovery.Group_commit.default
      { Generator.default with shards = 8; offered_load = 600. }
  in
  { txns = s.Generator.committed; events = s.Generator.events }

(* ------------------------------------------------------------------ *)

(* Allocation and wall clock are bracketed around the whole arm. *)
let run_arm ~name ~kind ~pinned ~ref_words_per_txn f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let measured = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  { name; kind; pinned; ref_words_per_txn; measured; minor_words; wall_s }

let arm_json oc a =
  Printf.fprintf oc
    "    {\"name\": \"%s\", \"kind\": \"%s\",\n\
    \     \"txns\": %d, \"events\": %d, \"events_per_txn\": %.2f,\n\
    \     \"pinned_txns\": %d, \"pinned_events\": %d,\n\
    \     \"minor_words_per_txn\": %.1f, \"ref_minor_words_per_txn\": %.1f, \
     \"max_minor_words_per_txn\": %.1f,\n\
    \     \"wall_s\": %.4f, \"txns_per_s\": %.0f, \"events_per_s\": %.0f}"
    a.name a.kind a.measured.txns a.measured.events (events_per_txn a)
    a.pinned.txns a.pinned.events (words_per_txn a) a.ref_words_per_txn
    (words_ceiling a) a.wall_s (per_s a a.measured.txns)
    (per_s a a.measured.events)

let write_json arms =
  let oc = open_out json_file in
  Printf.fprintf oc
    "{\n  \"bench\": \"simperf\",\n  \"words_slack\": %.2f,\n\
    \  \"workloads\": [\n"
    words_slack;
  List.iteri
    (fun i a ->
      if i > 0 then output_string oc ",\n";
      arm_json oc a)
    arms;
  output_string oc "\n  ]\n}\n";
  close_out oc

(* Pinned counts and reference words/txn were measured on OCaml 5.1 when
   the core last changed; a deliberate change to either re-pins here. *)
let print_simperf () =
  let arms =
    [
      run_arm ~name:"messages" ~kind:"engine_core"
        ~pinned:{ txns = 99_972; events = 240_539 }
        ~ref_words_per_txn:61.1 run_messages_core;
      run_arm ~name:"scaleout" ~kind:"engine_core"
        ~pinned:{ txns = 126_822; events = 355_635 }
        ~ref_words_per_txn:64.0 run_scaleout_core;
      run_arm ~name:"tabs_messages" ~kind:"full_stack"
        ~pinned:{ txns = 224; events = 18_360 }
        ~ref_words_per_txn:4_067.5 run_tabs_messages;
      run_arm ~name:"tabs_scaleout" ~kind:"full_stack"
        ~pinned:{ txns = 4_318; events = 138_064 }
        ~ref_words_per_txn:1_937.5 run_tabs_scaleout;
    ]
  in
  Printf.printf "\nSimulator-core throughput, one run per arm:\n";
  Printf.printf "  %-14s %9s %9s %8s %10s %10s %8s %11s %11s\n" "workload"
    "sim txns" "events" "ev/txn" "words/txn" "ceiling" "wall s" "txn/s"
    "events/s";
  List.iter
    (fun a ->
      Printf.printf "  %-14s %9d %9d %8.2f %10.1f %10.1f %8.3f %11.0f %11.0f%s\n"
        a.name a.measured.txns a.measured.events (events_per_txn a)
        (words_per_txn a) (words_ceiling a) a.wall_s
        (per_s a a.measured.txns) (per_s a a.measured.events)
        (if ok a then "" else "  FAIL"))
    arms;
  write_json arms;
  Printf.printf "  wrote %s\n" json_file;
  List.iter
    (fun a ->
      if a.measured <> a.pinned then
        Printf.eprintf
          "simperf: %s: simulated %d txns / %d events, pinned %d / %d\n"
          a.name a.measured.txns a.measured.events a.pinned.txns
          a.pinned.events;
      if words_per_txn a > words_ceiling a then
        Printf.eprintf "simperf: %s: %.1f minor words/txn, ceiling %.1f\n"
          a.name (words_per_txn a) (words_ceiling a))
    arms;
  if not (List.for_all ok arms) then exit 1
