(* Dependency logging and graph-bounded parallel redo.

   The load-bearing properties:

   - with the feature off, no dependency record is ever written and
     nothing changes (the seed probes elsewhere pin byte-identity);
   - a dependency record is emitted only on a cross-family conflict,
     immediately after the update it orders, and truncation can never
     separate the pair;
   - replay at one fiber, inline or spawned, applies exactly the
     reference oracle's sequence ({!Recovery_oracle}: the paper's
     serial passes); with more fibers it is faster but ends in the same
     state, and loser undo still runs newest-first;
   - crash at an arbitrary instant: a parallel anchored restart and the
     oracle's full-scan recovery over a frozen copy of the same stable
     log and disk agree on losers, the in-doubt set, and every data
     byte — including with group commit, checkpointing, and comm
     batching all running at once. *)

open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_accent
open Tabs_recovery
open Tabs_core
open Crash_harness

let quick name f = Alcotest.test_case name `Quick f

(* --- rig (no Transaction Manager) ------------------------------------ *)

let pages = 16

(* one operation-logged counter per cell; redo and undo both write the
   absolute value carried in the record's argument *)
let counter_handler vm =
  let apply ~op:_ ~arg =
    Scanf.sscanf arg "%d %d" (fun cell v ->
        Vm.pin vm (obj cell) ~access:`Random;
        Vm.write vm (obj cell) (Printf.sprintf "%08d" v);
        Vm.unpin vm (obj cell))
  in
  { Recovery_mgr.redo = apply; undo = apply }

let register_counter rm vm =
  Recovery_mgr.register_op_handler rm ~server:"counter" (counter_handler vm)

let counter_oracle rig =
  Recovery_oracle.run ~frames:(2 * pages) ~disk:rig.disk ~stable:rig.stable
    ~handlers:(fun vm -> [ ("counter", counter_handler vm) ])
    ()

let make_rig ?parallel_recovery () =
  let rig = make_rig ~pages ?parallel_recovery () in
  register_counter rig.rm rig.vm;
  rig

let write_op ?(undo = 0) rig tid n v ~reads =
  Vm.pin rig.vm (obj n) ~access:`Random;
  Vm.write rig.vm (obj n) (Printf.sprintf "%08d" v);
  Vm.unpin rig.vm (obj n);
  ignore
    (Recovery_mgr.log_operation rig.rm ~tid ~server:"counter" ~op:"set"
       ~undo_arg:(Printf.sprintf "%d %d" n undo)
       ~redo_arg:(Printf.sprintf "%d %d" n v)
       ~reads:(List.map obj reads) ~objs:[ obj n ] ())

(* --- dependency emission -------------------------------------------- *)

let test_off_emits_nothing () =
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let t1 = Tid.top ~node:0 ~seq:1 and t2 = Tid.top ~node:0 ~seq:2 in
      write rig t1 0 (v8 "a");
      commit rig t1;
      write rig t2 0 (v8 "b");
      commit rig t2);
  Alcotest.(check bool) "dep logging off" false
    (Log_manager.dep_logging rig.log);
  Alcotest.(check int) "no dependency records" 0
    (List.length (dependency_records rig));
  Alcotest.(check int) "counter agrees" 0 (Log_manager.deps_emitted rig.log)

let test_conflict_emits_adjacent_record () =
  let rig = make_rig ~parallel_recovery:Parallel_redo.default () in
  Alcotest.(check bool) "dep logging on" true
    (Log_manager.dep_logging rig.log);
  let lsn1 = ref 0 in
  run_fiber rig (fun () ->
      let t1 = Tid.top ~node:0 ~seq:1 and t2 = Tid.top ~node:0 ~seq:2 in
      Vm.pin rig.vm (obj 0) ~access:`Random;
      Vm.write rig.vm (obj 0) (v8 "a");
      Vm.unpin rig.vm (obj 0);
      lsn1 :=
        Recovery_mgr.log_value rig.rm ~tid:t1 ~obj:(obj 0)
          ~old_value:(v8 "") ~new_value:(v8 "a");
      commit rig t1;
      (* the same family rewriting the object: no conflict, no record *)
      write rig t1 0 (v8 "a2");
      (* another family: conflict *)
      write rig t2 0 (v8 "b");
      commit rig t2);
  match dependency_records rig with
  | [ (dep_lsn, d) ] ->
      Alcotest.(check int) "adjacent to its update" (d.Record.update_lsn + 1)
        dep_lsn;
      Alcotest.(check int) "one predecessor" 1 (List.length d.Record.preds);
      (* the predecessor is t1's *latest* write of the object, not the
         first: the last-writer table tracks the newest image *)
      Alcotest.(check int) "predecessor is the last writer" (!lsn1 + 2)
        (snd (List.hd d.Record.preds))
  | deps ->
      Alcotest.failf "expected exactly one dependency, got %d"
        (List.length deps)

let test_read_conflict_crosses_pages () =
  let rig = make_rig ~parallel_recovery:Parallel_redo.default () in
  run_fiber rig (fun () ->
      let t1 = Tid.top ~node:0 ~seq:1 and t2 = Tid.top ~node:0 ~seq:2 in
      (* t1 writes a cell on page 0; t2 writes a cell on page 1 having
         read t1's cell — a cross-page read-write conflict *)
      write_op rig t1 0 7 ~reads:[];
      commit rig t1;
      write_op rig t2 cells_per_page 8 ~reads:[ 0 ];
      commit rig t2);
  match dependency_records rig with
  | [ (_, d) ] ->
      let pred_obj, _ = List.hd d.Record.preds in
      Alcotest.(check bool) "predecessor is the read object" true
        (Object_id.equal pred_obj (obj 0));
      Alcotest.(check bool) "and lives on another page" true
        (Object_id.pages pred_obj <> Object_id.pages (obj cells_per_page))
  | deps ->
      Alcotest.failf "expected exactly one dependency, got %d"
        (List.length deps)

let test_truncation_never_splits_the_pair () =
  let rig = make_rig ~parallel_recovery:Parallel_redo.default () in
  run_fiber rig (fun () ->
      let t1 = Tid.top ~node:0 ~seq:1 and t2 = Tid.top ~node:0 ~seq:2 in
      write rig t1 0 (v8 "a");
      commit rig t1;
      write rig t2 0 (v8 "b");
      commit rig t2;
      Log_manager.force_all rig.log;
      Vm.flush_all rig.vm);
  let dep_lsn, d =
    match dependency_records rig with
    | [ pair ] -> pair
    | deps ->
        Alcotest.failf "expected exactly one dependency, got %d"
          (List.length deps)
  in
  (* a prospective truncation point between the update and its
     dependency record is lowered onto the update *)
  Alcotest.(check int) "aligned onto the update" d.Record.update_lsn
    (Log_manager.dep_aligned_keep_from rig.log ~keep_from:dep_lsn);
  Log_manager.truncate rig.log ~keep_from:dep_lsn;
  Alcotest.(check int) "truncate applies the alignment" d.Record.update_lsn
    (Log_manager.first_lsn rig.log)

(* --- lockstep and speedup ------------------------------------------- *)

(* A mixed workload: operation-logged counters with cross-page read
   conflicts, value-logged cells, and losers. Pages are never flushed,
   so everything needs redo at recovery. *)
let build_mixed_log () =
  let rig = make_rig ~parallel_recovery:Parallel_redo.default () in
  run_fiber rig (fun () ->
      for i = 0 to 39 do
        let tid = Tid.top ~node:0 ~seq:(i + 1) in
        if i mod 2 = 0 then begin
          (* ops: a hot counter on page (i mod 4), then a cold cell
             beyond, reading an earlier family's hot counter — a
             cross-page dependency edge *)
          write_op rig tid ((i mod 4) * cells_per_page) (i + 1) ~reads:[];
          write_op rig tid
            ((4 + (i mod (pages - 4))) * cells_per_page)
            (i + 100)
            ~reads:[ ((i + 2) mod 4) * cells_per_page ]
        end
        else begin
          write rig tid (4 + (i mod 8)) (v8 (string_of_int i));
          write rig tid (12 + (i mod 4)) (v8 (string_of_int (i * 3)))
        end;
        if i mod 7 <> 6 then commit rig tid
      done;
      Log_manager.force_all rig.log);
  rig

let recover_frozen rig ~parallel ~hook =
  let engine = Engine.create () in
  let disk = Disk.copy rig.disk ~engine in
  let stable = Stable.copy rig.stable in
  let vm = Vm.attach engine disk ~frames:(2 * pages) () in
  let log = Log_manager.attach engine stable in
  let rm =
    Recovery_mgr.create engine ~node:0 ~log ~vm ?parallel_recovery:parallel ()
  in
  register_counter rm vm;
  Recovery_mgr.set_apply_hook rm hook;
  (* the rig never checkpoints, so the analysis scan covers the whole
     log, as the oracle's does *)
  Alcotest.(check (option int)) "no checkpoint to anchor at" None
    (Log_manager.last_checkpoint log);
  let out = ref None in
  ignore
    (Engine.spawn engine (fun () -> out := Some (Recovery_mgr.recover rm)));
  ignore (Engine.run engine);
  (Option.get !out, disk)

let trace_frozen rig ~parallel =
  let acc = ref [] in
  let outcome, disk =
    recover_frozen rig ~parallel
      ~hook:(Some (fun ~phase ~lsn -> acc := (phase, lsn) :: !acc))
  in
  (List.rev !acc, outcome, disk)

let tids = List.map Tid.to_string

let test_one_fiber_is_the_oracle () =
  let rig = build_mixed_log () in
  let oracle, oracle_disk = counter_oracle rig in
  Alcotest.(check bool) "some work was replayed" true
    (List.length oracle.applied > 40);
  let replay what parallel =
    let trace, outcome, disk = trace_frozen rig ~parallel in
    Alcotest.(check (list (pair string int)))
      (what ^ ": the oracle's application sequence")
      oracle.Recovery_oracle.applied trace;
    Alcotest.(check (list string))
      (what ^ ": the oracle's losers") (tids oracle.losers)
      (tids outcome.losers);
    check_pages_equal ~what disk oracle_disk ~segments:[ 1 ];
    outcome.replay_us
  in
  Alcotest.(check int) "inline and one spawned fiber take the same time"
    (replay "inline" None)
    (replay "one fiber" (Some { Parallel_redo.fibers = 1 }))

let test_more_fibers_same_state_less_time () =
  let rig = build_mixed_log () in
  let oracle, oracle_disk = counter_oracle rig in
  let one_outcome, _ =
    recover_frozen rig ~parallel:(Some { Parallel_redo.fibers = 1 }) ~hook:None
  in
  let par_outcome, par_disk =
    recover_frozen rig ~parallel:(Some { Parallel_redo.fibers = 8 })
      ~hook:None
  in
  Alcotest.(check bool) "replay is faster with 8 fibers" true
    (par_outcome.replay_us < one_outcome.replay_us);
  let s = par_outcome.graph in
  Alcotest.(check bool) "graph has cross-page dependency edges" true
    (s.Parallel_redo.dep_edges > 0);
  Alcotest.(check bool) "critical path below total work" true
    (s.Parallel_redo.critical_path
    < s.Parallel_redo.op_records + s.Parallel_redo.value_records);
  Alcotest.(check (list string))
    "the oracle's losers" (tids oracle.losers) (tids par_outcome.losers);
  check_pages_equal ~what:"oracle vs eight fibers" oracle_disk par_disk
    ~segments:[ 1 ]

(* Losers whose operation records share pages with winners (and with
   each other): undo must run newest-first, after every winner's redo,
   whatever the redo fan-out. Undo arguments restore the previous
   image, so an out-of-order undo leaves a wrong value behind, and the
   applied order is checked against the oracle's directly. *)
let test_eight_fiber_undo_is_newest_first () =
  let rig = make_rig ~parallel_recovery:Parallel_redo.default () in
  run_fiber rig (fun () ->
      let shadow = Array.make (pages * cells_per_page) 0 in
      for i = 0 to 29 do
        let tid = Tid.top ~node:0 ~seq:(i + 1) in
        List.iter
          (fun cell ->
            let v = (i * 10) + 1 + (cell mod 7) in
            write_op rig tid cell v ~undo:shadow.(cell) ~reads:[];
            shadow.(cell) <- v)
          [ (i mod 3) * cells_per_page; ((i + 1) mod 3) * cells_per_page + 1 ];
        if i mod 3 <> 1 then commit rig tid
      done;
      Log_manager.force_all rig.log);
  let oracle, oracle_disk = counter_oracle rig in
  let undos trace = List.filter (fun (phase, _) -> phase = "op_undo") trace in
  let oracle_undos = undos oracle.applied in
  Alcotest.(check bool) "several losers to undo" true
    (List.length oracle_undos >= 10);
  Alcotest.(check (list int)) "the oracle undoes newest-first"
    (List.sort (fun a b -> compare b a) (List.map snd oracle_undos))
    (List.map snd oracle_undos);
  let trace, outcome, disk =
    trace_frozen rig ~parallel:(Some { Parallel_redo.fibers = 8 })
  in
  Alcotest.(check (list (pair string int)))
    "eight fibers undo in the oracle's order" oracle_undos (undos trace);
  check_pages_equal ~what:"oracle vs eight fibers" oracle_disk disk
    ~segments:[ 1 ];
  (* every restart reports its graph, even the inline one-fiber drain *)
  let _, inline, _ = trace_frozen rig ~parallel:None in
  Alcotest.(check bool) "inline restart reports its graph" true
    (inline.graph.Parallel_redo.op_records > 0);
  Alcotest.(check bool) "the same graph at every schedule" true
    (inline.graph = outcome.graph)

(* --- crash at a random instant over full nodes ----------------------- *)

(* Random concurrent workload on one node with parallel recovery (and,
   when [full_stack], group commit, the checkpoint daemon, and comm
   batching all at once) — crash at a random instant; the live node's
   parallel anchored restart must agree with the oracle's full-scan
   recovery over a frozen copy on losers, in-doubt set, and every data
   byte. Value-logged and operation-logged servers both participate. *)
let parallel_crash_equivalence ~profile ~full_stack ?(window = 2_000_000) ~seed
    () =
  let c =
    Cluster.create ~nodes:1 ~profile
      ~parallel_recovery:{ Parallel_redo.fibers = 4 }
      ?group_commit:(if full_stack then Some Group_commit.default else None)
      ?checkpointing:
        (if full_stack then
           Some { Checkpointer.interval = 20_000; trickle = 4 }
         else None)
      ?comm_batching:
        (if full_stack then Some Tabs_net.Comm_mgr.default_batching
         else None)
      ()
  in
  ignore
    (crash_matches_oracle c ~what:"parallel restart" ~seed ~cells:128
       ~accounts:64 ~think:2_000 ~crash_from:60_000 ~window ());
  true

let prop_parallel_equivalence profile name =
  QCheck.Test.make ~name ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      parallel_crash_equivalence ~profile ~full_stack:false ~seed ())

(* the 300-seed stress: the whole stack on at once *)
let test_full_stack_stress () =
  for seed = 1 to 300 do
    ignore
      (parallel_crash_equivalence ~profile:Profile.Classic ~full_stack:true
         ~window:1_500_000 ~seed:(seed * 3571) ())
  done

let suites =
  [
    ( "parallel_recovery",
      [
        quick "off: no dependency records" test_off_emits_nothing;
        quick "conflict emits adjacent dependency"
          test_conflict_emits_adjacent_record;
        quick "read conflict crosses pages" test_read_conflict_crosses_pages;
        quick "truncation never splits the pair"
          test_truncation_never_splits_the_pair;
        quick "one fiber = the oracle's application sequence"
          test_one_fiber_is_the_oracle;
        quick "more fibers: same state, less time"
          test_more_fibers_same_state_less_time;
        quick "eight fibers: loser undo newest-first"
          test_eight_fiber_undo_is_newest_first;
        QCheck_alcotest.to_alcotest
          (prop_parallel_equivalence Profile.Classic
             "crash at a random instant: parallel = serial (Classic)");
        QCheck_alcotest.to_alcotest
          (prop_parallel_equivalence Profile.Integrated
             "crash at a random instant: parallel = serial (Integrated)");
        Alcotest.test_case "300-seed stress: full stack on" `Slow
          test_full_stack_stress;
      ] );
  ]
