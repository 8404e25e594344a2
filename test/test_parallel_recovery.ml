(* Graph-bounded parallel redo.

   The load-bearing properties:

   - the restart schedule never changes forward processing: a node
     configured for parallel and instant restart writes the same stable
     log, byte for byte, as a plain one (the seed probes elsewhere pin
     the plain log itself);
   - replay at one fiber applies exactly the reference oracle's
     sequence ({!Recovery_oracle}: the paper's serial passes); with
     more fibers it is faster but ends in the same state, and loser
     undo still runs newest-first;
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

let make_rig () =
  let rig = make_rig ~pages () in
  register_counter rig.rm rig.vm;
  rig

let write_op ?(undo = 0) rig tid n v =
  Vm.pin rig.vm (obj n) ~access:`Random;
  Vm.write rig.vm (obj n) (Printf.sprintf "%08d" v);
  Vm.unpin rig.vm (obj n);
  ignore
    (Recovery_mgr.log_operation rig.rm ~tid ~server:"counter" ~op:"set"
       ~undo_arg:(Printf.sprintf "%d %d" n undo)
       ~redo_arg:(Printf.sprintf "%d %d" n v)
       ~objs:[ obj n ])

(* --- forward processing ---------------------------------------------- *)

(* One seeded workload on a one-node cluster: three writers mixing
   value-logged cell writes and operation-logged deposits, drawn from
   few enough cells and accounts that other families keep overwriting
   the same objects. Returns the MD5 of the stable log's bytes and its
   record count after ten virtual seconds. *)
let forward_log ?parallel_recovery ?instant_restart () =
  let open Tabs_servers in
  let c = Cluster.create ~nodes:1 ?parallel_recovery ?instant_restart () in
  let node = Cluster.node c 0 in
  let env = Node.env node in
  let arr = Int_array_server.create env ~name:"a" ~segment:1 ~cells:16 () in
  let acc = Account_server.create env ~name:"b" ~segment:2 ~accounts:8 () in
  spawn_writers c ~tm:(Node.tm node) ~seed:17 ~writers:3 ~think:2_000
    (fun rand tid ->
      if rand 2 = 0 then Int_array_server.set arr tid (rand 16) (rand 1000)
      else Account_server.deposit acc tid (rand 8) (1 + rand 9));
  Cluster.run_until c ~time:10_000_000;
  (* the writers never finish: read what is stable at the deadline *)
  let log = Node.log node in
  let bytes = Buffer.create 4096 in
  let records = ref 0 in
  Log_manager.iter_forward log ~from:(Log_manager.first_lsn log)
    ~f:(fun _ record ->
      incr records;
      Buffer.add_string bytes (Record.encode record));
  (Digest.to_hex (Digest.string (Buffer.contents bytes)), !records)

let test_schedule_leaves_log_unchanged () =
  let plain_md5, plain_records = forward_log () in
  Alcotest.(check bool) "the workload logged updates" true
    (plain_records > 200);
  let md5, records =
    forward_log ~parallel_recovery:Parallel_redo.default
      ~instant_restart:true ()
  in
  Alcotest.(check int) "same record count" plain_records records;
  Alcotest.(check string) "same log bytes" plain_md5 md5

(* --- lockstep and speedup ------------------------------------------- *)

(* A mixed workload: operation-logged counters, value-logged cells, and
   losers. Pages are never flushed, so everything needs redo at
   recovery. *)
let build_mixed_log () =
  let rig = make_rig () in
  run_fiber rig (fun () ->
      for i = 0 to 39 do
        let tid = Tid.top ~node:0 ~seq:(i + 1) in
        if i mod 2 = 0 then begin
          (* ops: a hot counter on page (i mod 4), then a cold cell
             beyond *)
          write_op rig tid ((i mod 4) * cells_per_page) (i + 1);
          write_op rig tid ((4 + (i mod (pages - 4))) * cells_per_page) (i + 100)
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
  Alcotest.(check int) "inline and one fiber take the same time"
    (replay "inline" None)
    (replay "one fiber" (Some 1))

let test_more_fibers_same_state_less_time () =
  let rig = build_mixed_log () in
  let oracle, oracle_disk = counter_oracle rig in
  let one_outcome, _ =
    recover_frozen rig ~parallel:(Some 1) ~hook:None
  in
  let par_outcome, par_disk =
    recover_frozen rig ~parallel:(Some 8)
      ~hook:None
  in
  Alcotest.(check bool) "replay is faster with 8 fibers" true
    (par_outcome.replay_us < one_outcome.replay_us);
  let s = par_outcome.graph in
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
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let shadow = Array.make (pages * cells_per_page) 0 in
      for i = 0 to 29 do
        let tid = Tid.top ~node:0 ~seq:(i + 1) in
        List.iter
          (fun cell ->
            let v = (i * 10) + 1 + (cell mod 7) in
            write_op rig tid cell v ~undo:shadow.(cell);
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
    trace_frozen rig ~parallel:(Some 8)
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
      ~parallel_recovery:4
      ?group_commit:(if full_stack then Some Group_commit.default else None)
      ?checkpointing:
        (if full_stack then
           Some 20_000
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
        quick "restart options: same log" test_schedule_leaves_log_unchanged;
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
