(* Tests for the simulation substrate: heap, clock, fibers, wait queues,
   metrics, crash semantics. *)

open Tabs_sim

(* removes the minimum, returning its (key, value) *)
let pop_min h =
  let k = Heap.min_key h in
  (k, Heap.pop h)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun k -> ignore (Heap.push h ~key:k (string_of_int k))) [ 5; 1; 9; 1; 3 ];
  let order = ref [] in
  while not (Heap.is_empty h) do
    let k, v = pop_min h in
    order := (k, v) :: !order
  done;
  Alcotest.(check (list (pair int string)))
    "sorted, FIFO among ties"
    [ (1, "1"); (1, "1"); (3, "3"); (5, "5"); (9, "9") ]
    (List.rev !order)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> ignore (Heap.push h ~key:7 v)) [ "a"; "b"; "c" ];
  let vs = List.init 3 (fun _ -> snd (pop_min h)) in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c" ] vs

let test_heap_random_sorted () =
  let rng = Rng.create ~seed:42 in
  let h = Heap.create () in
  let keys = List.init 500 (fun _ -> Rng.int rng 1000) in
  List.iter (fun k -> ignore (Heap.push h ~key:k k)) keys;
  let out = List.init 500 (fun _ -> fst (pop_min h)) in
  Alcotest.(check (list int)) "heap sorts" (List.sort compare keys) out

let test_clock_advances () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.at e ~delay:100 (fun () -> times := Engine.now e :: !times);
  Engine.at e ~delay:50 (fun () -> times := Engine.now e :: !times);
  let _ = Engine.run e in
  Alcotest.(check (list int)) "events in time order" [ 50; 100 ] (List.rev !times);
  Alcotest.(check int) "clock at last event" 100 (Engine.now e)

let test_fiber_delay () =
  let e = Engine.create () in
  let finished = ref (-1) in
  let _ =
    Engine.spawn e (fun () ->
        Engine.delay 10;
        Engine.delay 20;
        finished := Engine.now e)
  in
  let _ = Engine.run e in
  Alcotest.(check int) "delays accumulate" 30 !finished

let test_fiber_charge_costs () =
  let e = Engine.create () in
  let _ =
    Engine.spawn e (fun () ->
        Engine.charge e Cost_model.Small_contiguous_message;
        Engine.charge e Cost_model.Stable_storage_write)
  in
  let _ = Engine.run e in
  Alcotest.(check int) "elapsed = 3ms + 79ms" 82_000 (Engine.now e);
  Alcotest.(check int) "metrics counted small msg" 1
    (Metrics.count (Engine.metrics e) Cost_model.Small_contiguous_message)

let test_waitq_signal () =
  let e = Engine.create () in
  let q = Engine.Waitq.create () in
  let got = ref 0 in
  let _ = Engine.spawn e (fun () -> got := Engine.Waitq.wait q) in
  let _ =
    Engine.spawn e (fun () ->
        Engine.delay 5;
        ignore (Engine.Waitq.signal q ~engine:e 42))
  in
  let _ = Engine.run e in
  Alcotest.(check int) "value passed through" 42 !got

let test_waitq_timeout () =
  let e = Engine.create () in
  let q : int Engine.Waitq.t = Engine.Waitq.create () in
  let result = ref (Some 0) in
  let _ =
    Engine.spawn e (fun () ->
        result := Engine.Waitq.wait_timeout q ~engine:e ~timeout:100)
  in
  let _ = Engine.run e in
  Alcotest.(check bool) "timed out" true (!result = None);
  Alcotest.(check int) "waited full timeout" 100 (Engine.now e)

let test_waitq_signal_beats_timeout () =
  let e = Engine.create () in
  let q : int Engine.Waitq.t = Engine.Waitq.create () in
  let result = ref None in
  let _ =
    Engine.spawn e (fun () ->
        result := Engine.Waitq.wait_timeout q ~engine:e ~timeout:100)
  in
  Engine.at e ~delay:10 (fun () -> ignore (Engine.Waitq.signal q ~engine:e 7));
  let _ = Engine.run e in
  Alcotest.(check bool) "signaled in time" true (!result = Some 7);
  (* the signal cancelled the time-out: the run ends at the signal, after
     the spawn, the signal and the resumption *)
  Alcotest.(check int) "run ends at the signal" 10 (Engine.now e);
  Alcotest.(check int) "time-out never counted" 3 (Engine.events_processed e)

(* A timer starts a fiber of its node; cancelled first, it never runs,
   is not counted, and the run ends at the last real event. Cancelling
   a timer that has fired is a no-op. *)
let test_timer_cancel () =
  let e = Engine.create () in
  let fired = ref [] in
  let timer delay name =
    Engine.timer e ~node:0 ~delay (fun () ->
        Engine.delay 1;
        fired := (name, Engine.now e) :: !fired)
  in
  let early = timer 5 "early" and late = timer 50 "late" in
  Engine.at e ~delay:10 (fun () ->
      Engine.cancel e late;
      Engine.cancel e early);
  let _ = Engine.run e in
  Alcotest.(check (list (pair string int))) "only the early timer ran"
    [ ("early", 6) ] !fired;
  Alcotest.(check int) "run ends at the cancel" 10 (Engine.now e);
  (* the early timer, its fiber's delay, the cancelling callback *)
  Alcotest.(check int) "cancelled timer not counted" 3 (Engine.events_processed e)

(* A node-bound timer does nothing once its node has crashed; one armed
   after the crash runs. *)
let test_timer_after_crash () =
  let e = Engine.create () in
  let fired = ref [] in
  let arm name =
    ignore
      (Engine.timer e ~node:1 ~delay:20 (fun () ->
           fired := (name, Engine.now e) :: !fired))
  in
  arm "before";
  Engine.at e ~delay:10 (fun () ->
      Engine.crash_node e 1;
      arm "after");
  let _ = Engine.run e in
  Alcotest.(check (list (pair string int))) "only the restarted node's timer"
    [ ("after", 30) ] !fired

let test_waitq_fifo () =
  let e = Engine.create () in
  let q = Engine.Waitq.create () in
  let order = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.spawn e (fun () ->
           let v = Engine.Waitq.wait q in
           order := (i, v) :: !order))
  done;
  Engine.at e ~delay:1 (fun () ->
      ignore (Engine.Waitq.signal_all q ~engine:e 0));
  let _ = Engine.run e in
  Alcotest.(check (list (pair int int)))
    "woken in wait order"
    [ (1, 0); (2, 0); (3, 0) ]
    (List.rev !order)

let test_crash_kills_fiber () =
  let e = Engine.create () in
  let q : unit Engine.Waitq.t = Engine.Waitq.create () in
  let reached = ref false in
  let _ =
    Engine.spawn e ~node:1 (fun () ->
        Engine.Waitq.wait q;
        reached := true)
  in
  Engine.at e ~delay:10 (fun () -> Engine.crash_node e 1);
  Engine.at e ~delay:20 (fun () ->
      ignore (Engine.Waitq.signal q ~engine:e ()));
  let _ = Engine.run e in
  Alcotest.(check bool) "crashed fiber never resumes" false !reached

let test_crash_spares_other_nodes () =
  let e = Engine.create () in
  let survived = ref false in
  let _ =
    Engine.spawn e ~node:2 (fun () ->
        Engine.delay 50;
        survived := true)
  in
  Engine.at e ~delay:10 (fun () -> Engine.crash_node e 1);
  let _ = Engine.run e in
  Alcotest.(check bool) "node 2 fiber survives" true !survived

let test_restart_after_crash () =
  let e = Engine.create () in
  let runs = ref [] in
  let _ = Engine.spawn e ~node:1 (fun () -> Engine.delay 100; runs := "old" :: !runs) in
  Engine.at e ~delay:10 (fun () ->
      Engine.crash_node e 1;
      ignore (Engine.spawn e ~node:1 (fun () -> runs := "new" :: !runs)));
  let _ = Engine.run e in
  Alcotest.(check (list string)) "only post-restart fiber runs" [ "new" ] !runs

let test_cpu_accounting () =
  let e = Engine.create () in
  let _ =
    Engine.spawn e (fun () ->
        Engine.charge_cpu e ~process:"tm" 36_000;
        Engine.charge_cpu e ~process:"rm" 5_000;
        Engine.charge_cpu e ~process:"tm" 1_000)
  in
  let _ = Engine.run e in
  Alcotest.(check int) "tm cpu" 37_000 (Engine.cpu_time e ~process:"tm");
  Alcotest.(check int) "rm cpu" 5_000 (Engine.cpu_time e ~process:"rm");
  Alcotest.(check int) "elapsed covers all" 42_000 (Engine.now e)

let test_metrics_diff_and_weighting () =
  let m = Metrics.create () in
  Metrics.record_weighted m Cost_model.Datagram ~num:4 ~den:1;
  Metrics.record m Cost_model.Stable_storage_write;
  Metrics.record_elided m Cost_model.Small_contiguous_message;
  Metrics.record_weighted m Cost_model.Large_contiguous_message ~num:1 ~den:2;
  let before = Metrics.snapshot m in
  Metrics.record_weighted m Cost_model.Datagram ~num:2 ~den:1;
  Metrics.record_elided m Cost_model.Small_contiguous_message;
  Metrics.record_elided m Cost_model.Small_contiguous_message;
  Metrics.record_weighted m Cost_model.Large_contiguous_message ~num:1 ~den:4;
  (* the snapshot is a copy: counting after it leaves it as it was *)
  Alcotest.(check int) "snapshot datagrams" 4
    (Metrics.count before Cost_model.Datagram);
  Alcotest.(check (float 1e-9)) "snapshot elided" 1.
    (Metrics.elided_weight before Cost_model.Small_contiguous_message);
  Alcotest.(check (float 1e-9)) "snapshot weighted" 0.5
    (Metrics.weight before Cost_model.Large_contiguous_message);
  let d = Metrics.diff ~later:m ~earlier:before in
  Alcotest.(check int) "diff datagrams" 2 (Metrics.count d Cost_model.Datagram);
  Alcotest.(check int) "diff stable" 0
    (Metrics.count d Cost_model.Stable_storage_write);
  Alcotest.(check (float 1e-9)) "diff elided" 2.
    (Metrics.elided_weight d Cost_model.Small_contiguous_message);
  Alcotest.(check (float 1e-9)) "diff weighted" 0.25
    (Metrics.weight d Cost_model.Large_contiguous_message);
  Alcotest.(check (float 1e-9)) "diff charges nothing elided" 0.
    (Metrics.weight d Cost_model.Small_contiguous_message);
  Alcotest.(check int) "weighted = 6*25 + 79 + 0.75*4.4 ms (elided costs nothing)"
    ((6 * 25_000) + 79_000 + 3_300)
    (Metrics.weighted_cost m Cost_model.measured)

let test_cost_tables_match_paper () =
  let check_ms model p ms =
    Alcotest.(check int)
      (Cost_model.name p)
      (int_of_float (ms *. 1000.))
      (Cost_model.cost model p)
  in
  check_ms Cost_model.measured Cost_model.Data_server_call 26.1;
  check_ms Cost_model.measured Cost_model.Inter_node_data_server_call 89.;
  check_ms Cost_model.measured Cost_model.Stable_storage_write 79.;
  check_ms Cost_model.achievable Cost_model.Data_server_call 2.5;
  check_ms Cost_model.achievable Cost_model.Stable_storage_write 32.

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops sorted" ~count:100
    QCheck.(list int)
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> ignore (Heap.push h ~key:k k)) keys;
      let out = List.init (List.length keys) (fun _ -> fst (pop_min h)) in
      out = List.sort compare keys)

type heap_op = Push of int | Pop | Remove of int

(* Op scripts for the heap model: push key [k], pop, or remove through
   the handle of the [i]-th push (mod the pushes so far), which may have
   left the heap already, its slot since reused. Long scripts drift
   upward (3 pushes to 2 pops and 1 removal), so the heap grows past its
   initial 64 entries with live slots, every pop or removal frees a slot
   a later push refills, and a small key range ties many entries. *)
let long_ops keys =
  QCheck.make
    ~print:
      QCheck.Print.(
        list (function
          | Push k -> "push " ^ int k
          | Pop -> "pop"
          | Remove i -> "remove " ^ int i))
    QCheck.Gen.(
      list_size (int_range 0 1_500)
        (frequency
           [
             (3, map (fun k -> Push k) (int_range 0 keys));
             (2, return Pop);
             (1, map (fun i -> Remove i) nat);
           ]))

(* The int-only heap against a reference sorted-list model: same
   (key, seq) order, FIFO among equal keys (values are insertion ranks,
   so a tie broken out of order is visible), and a removal takes out
   exactly its own entry, or nothing once that entry has left. *)
let heap_matches_model ops =
  let h = Heap.create () in
  let model = ref [] in
  let handles = ref [||] in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Push key ->
          let v = Array.length !handles in
          handles := Array.append !handles [| Heap.push h ~key v |];
          model := List.merge compare !model [ (key, v) ]
      | Pop -> (
          match !model with
          | [] -> if not (Heap.is_empty h) then ok := false
          | (k, v) :: rest ->
              model := rest;
              if pop_min h <> (k, v) then ok := false)
      | Remove i ->
          let n = Array.length !handles in
          if n > 0 then begin
            let v = i mod n in
            Heap.remove h !handles.(v);
            model := List.filter (fun (_, v') -> v' <> v) !model
          end)
    ops;
  (* drain what remains *)
  List.iter (fun (k, v) -> if pop_min h <> (k, v) then ok := false) !model;
  !ok && Heap.is_empty h

let prop_heap_model =
  QCheck.Test.make ~name:"heap matches sorted-list model (FIFO ties)"
    ~count:200 (long_ops 15) heap_matches_model

(* Grow to 200 live entries on four keys, free 150 slots, refill them
   and grow past the next doubling, then drain. *)
let test_heap_refill () =
  let push n = List.init n (fun i -> Push (i mod 4)) in
  let pops n = List.init n (fun _ -> Pop) in
  Alcotest.(check bool) "pop order is the (key, seq) model" true
    (heap_matches_model (push 200 @ pops 150 @ push 300 @ pops 100 @ push 70))

(* The first entry is popped and its slot goes to the second: the first
   handle must not remove the second entry, while the second's own
   handle does, and an entry removed from the middle keeps the rest in
   order. *)
let test_heap_stale_handle () =
  Alcotest.(check bool) "stale handle is a no-op" true
    (heap_matches_model [ Push 1; Pop; Push 2; Remove 0; Push 3 ]);
  Alcotest.(check bool) "own handle removes" true
    (heap_matches_model [ Push 1; Pop; Push 2; Remove 1; Push 3 ]);
  Alcotest.(check bool) "removal mid-heap" true
    (heap_matches_model (List.init 9 (fun k -> Push (9 - k)) @ [ Remove 4; Remove 0 ]))

let test_simulation_deterministic () =
  (* two identical runs of a small workload produce byte-identical
     virtual times and metrics — the property every benchmark and
     crash test relies on *)
  let run () =
    let e = Engine.create () in
    let q = Engine.Waitq.create () in
    let trace = ref [] in
    for i = 1 to 5 do
      ignore
        (Engine.spawn e (fun () ->
             Engine.delay (i * 7);
             Engine.charge e Cost_model.Small_contiguous_message;
             (match
                Engine.Waitq.wait_timeout q ~engine:e ~timeout:(i * 100)
              with
             | Some v -> trace := (i, v, Engine.now e) :: !trace
             | None -> trace := (i, -1, Engine.now e) :: !trace);
             if i mod 2 = 0 then
               ignore (Engine.Waitq.signal q ~engine:e i)))
    done;
    let _ = Engine.run e in
    (!trace, Engine.now e, Metrics.count (Engine.metrics e) Cost_model.Small_contiguous_message)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical traces" true (a = b)

(* Satellite regression for the seed's [q.queue @ [w]] O(n) append:
   grant order must stay strictly FIFO at 10^3 waiters, and [waiters]
   must count them without scanning. *)
let test_waitq_fifo_1000 () =
  let e = Engine.create () in
  let q = Engine.Waitq.create () in
  let order = ref [] in
  let n = 1_000 in
  for i = 0 to n - 1 do
    ignore
      (Engine.spawn e (fun () ->
           let v = Engine.Waitq.wait q in
           order := (i, v) :: !order))
  done;
  Engine.at e ~delay:10 (fun () ->
      Alcotest.(check int) "all parked and counted" n (Engine.Waitq.waiters q));
  Engine.at e ~delay:20 (fun () ->
      for v = 0 to n - 1 do
        ignore (Engine.Waitq.signal q ~engine:e v)
      done);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int)))
    "FIFO grant order at 10^3 waiters"
    (List.init n (fun i -> (i, i)))
    (List.rev !order);
  Alcotest.(check int) "drained" 0 (Engine.Waitq.waiters q)

(* Tentpole (c) contract: with no tracer installed and no charges, the
   optimized dispatch loop is allocation-free — 10^6 pre-scheduled
   callback events run within a fraction of a word of minor allocation
   per event. *)
let test_zero_cost_dispatch () =
  let e = Engine.create () in
  Alcotest.(check bool) "tracing off" false (Engine.tracing e);
  let nop () = () in
  let n = 1_000_000 in
  for i = 1 to n do
    Engine.at e ~delay:i nop
  done;
  let before = Gc.minor_words () in
  let processed = Engine.run e in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int n in
  Alcotest.(check int) "all events processed" n processed;
  Alcotest.(check int) "events_processed counter" n (Engine.events_processed e);
  if per_event > 0.5 then
    Alcotest.failf "dispatch allocates %.2f words/event (budget 0.5)" per_event

(* A charge in a node-bound fiber — the record, the per-node rollup and
   the delay's suspend/resume — allocates 22 minor words on OCaml 5.1.
   It was 30 while every suspension first performed a second effect to
   learn its own fiber: too little for bench/simperf.ml's per-txn
   ceilings to notice, so the budget is pinned here. *)
let test_charge_allocation () =
  let e = Engine.create () in
  let n = 10_000 in
  let words = ref 0. in
  let _ =
    Engine.spawn e ~node:1 (fun () ->
        Engine.charge e Cost_model.Datagram;
        let before = Gc.minor_words () in
        for _ = 1 to n do
          Engine.charge e Cost_model.Datagram
        done;
        words := Gc.minor_words () -. before)
  in
  ignore (Engine.run e);
  let per_charge = !words /. float_of_int n in
  if per_charge > 24. then
    Alcotest.failf "a charge allocates %.1f minor words (budget 24)" per_charge

(* The running fiber is recorded, not asked for: [fiber_id] must name
   the right fiber after each kind of resumption — the first step, a
   delay, a signal, a time-out, and a crash's [Killed] unwind followed
   by another fiber's step — and fail outside any fiber, in a plain
   callback too, rather than report a stale id. Ids follow spawn
   order. *)
let test_fiber_id_after_resumption () =
  let e = Engine.create () in
  let outside () =
    Alcotest.check_raises "outside a fiber"
      (Invalid_argument "Engine.fiber_id: not inside a fiber") (fun () ->
        ignore (Engine.fiber_id e))
  in
  let seen = ref [] in
  let note what = seen := (what, Engine.fiber_id e) :: !seen in
  let qa : int Engine.Waitq.t = Engine.Waitq.create () in
  let qb : unit Engine.Waitq.t = Engine.Waitq.create () in
  let _ =
    Engine.spawn e (fun () ->
        note "a spawn";
        Engine.delay 10;
        note "a delay";
        ignore (Engine.Waitq.wait qa);
        note "a signal";
        ignore (Engine.Waitq.wait_timeout qa ~engine:e ~timeout:5);
        note "a timeout")
  in
  let _ =
    Engine.spawn e ~node:1 (fun () ->
        note "b spawn";
        try Engine.Waitq.wait qb
        with Engine.Killed ->
          note "b killed";
          raise Engine.Killed)
  in
  let _ =
    Engine.spawn e (fun () ->
        note "c spawn";
        Engine.delay 30;
        Engine.delay 0;
        note "c after the kill")
  in
  Engine.at e ~delay:20 (fun () -> ignore (Engine.Waitq.signal qa ~engine:e 1));
  Engine.at e ~delay:30 (fun () ->
      outside ();
      Engine.crash_node e 1;
      ignore (Engine.Waitq.signal qb ~engine:e ()));
  outside ();
  ignore (Engine.run e);
  outside ();
  Alcotest.(check (list (pair string int)))
    "fiber ids"
    [
      ("a spawn", 0); ("b spawn", 1); ("c spawn", 2); ("a delay", 0);
      ("a signal", 0); ("a timeout", 0); ("b killed", 1);
      ("c after the kill", 2);
    ]
    (List.rev !seen)

let quick name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "sim.heap",
      [
        quick "ordering" test_heap_order;
        quick "fifo ties" test_heap_fifo_ties;
        quick "random sorted" test_heap_random_sorted;
        QCheck_alcotest.to_alcotest prop_heap_sorts;
        QCheck_alcotest.to_alcotest prop_heap_model;
        quick "grow, refill and tie" test_heap_refill;
        quick "stale handle after slot reuse" test_heap_stale_handle;
      ] );
    ( "sim.engine",
      [
        quick "clock advances" test_clock_advances;
        quick "fiber delay" test_fiber_delay;
        quick "charge costs" test_fiber_charge_costs;
        quick "cpu accounting" test_cpu_accounting;
        quick "deterministic replay" test_simulation_deterministic;
        quick "zero-cost dispatch at 1M events" test_zero_cost_dispatch;
        quick "charge allocation budget" test_charge_allocation;
        quick "fiber_id after every resumption" test_fiber_id_after_resumption;
        quick "cancelled timer never runs" test_timer_cancel;
        quick "timer dies with its node" test_timer_after_crash;
      ] );
    ( "sim.waitq",
      [
        quick "signal" test_waitq_signal;
        quick "timeout" test_waitq_timeout;
        quick "signal beats timeout" test_waitq_signal_beats_timeout;
        quick "fifo wakeup" test_waitq_fifo;
        quick "fifo grant order at 1000 waiters" test_waitq_fifo_1000;
      ] );
    ( "sim.crash",
      [
        quick "crash kills fiber" test_crash_kills_fiber;
        quick "other nodes unaffected" test_crash_spares_other_nodes;
        quick "restart isolates epochs" test_restart_after_crash;
      ] );
    ( "sim.metrics",
      [
        quick "diff and weighting" test_metrics_diff_and_weighting;
        quick "cost tables match paper" test_cost_tables_match_paper;
      ] );
    ( "sim.rng",
      [ quick "deterministic" test_rng_deterministic;
        QCheck_alcotest.to_alcotest prop_rng_bounds ] );
  ]
