(* Restart-cost benchmark: how checkpoint-anchored recovery bounds the
   analysis scan.

   Two arms run the same value-logged workload against one node's
   Recovery Manager (no Transaction Manager, like the recovery unit
   tests, so the off arm really never checkpoints):

   - off: no checkpoint daemon; recovery scans the whole live log, so
     the scan grows with the workload;
   - on: the background {!Tabs_recovery.Checkpointer} trickles pages
     out and writes fuzzy checkpoints as the workload runs; recovery
     anchors at the last one, so the scan stays bounded by the
     checkpoint distance regardless of workload length.

   Reported per point: records scanned at restart and the virtual-time
   cost of the restart itself. Curve written to BENCH_recovery.json. *)

open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_accent
open Tabs_recovery

type arm = {
  txns : int;
  scanned : int;
  restart_us : int;
  replay_us : int; (* redo+undo passes only, excluding the analysis scan *)
  open_us : int; (* time until the node accepts work (= restart_us
                    unless the arm restarts instantly) *)
  ttfc_us : int; (* time to first commit: restart + one probe txn *)
  log_records : int; (* live log length at the crash instant *)
  checkpoints : int; (* daemon cycles completed (0 on the off arm) *)
}

type point = { off : arm; on_ : arm; instant : arm }

let segment = 1

let seg_pages = 64

let frames = 32

let writes_per_txn = 3

let cells_per_page = Page.size / 8

let obj n =
  let cell = n mod (seg_pages * cells_per_page) in
  Object_id.make ~segment ~offset:(8 * cell) ~length:8

(* one checkpoint roughly every few transactions of virtual time *)
let checkpointing = { Checkpointer.default with interval = 100_000 }

let run_fiber engine f =
  let out = ref None in
  ignore (Engine.spawn engine (fun () -> out := Some (f ())));
  ignore (Engine.run engine);
  Option.get !out

(* The first commit after a restart: one small value-logged transaction
   touching page 0 — under instant restart its first read faults the
   page and replays that page's parked chain on demand. *)
let probe_first_commit vm rm =
  let tid = Tid.top ~node:0 ~seq:999_999 in
  ignore (Recovery_mgr.append_tm_record rm (Record.Txn_begin tid));
  let o = obj 0 in
  Vm.pin vm o ~access:`Random;
  let old_value = Vm.read vm o ~access:`Random in
  let new_value = "-probe--" in
  Vm.write vm o new_value;
  ignore (Recovery_mgr.log_value rm ~tid ~obj:o ~old_value ~new_value);
  Vm.unpin vm o;
  let lsn = Recovery_mgr.append_tm_record rm (Record.Txn_commit tid) in
  Recovery_mgr.force_through rm lsn

let run_arm ~mode ~txns =
  let checkpointed = mode <> `Off in
  let engine = Engine.create () in
  let disk = Disk.create engine in
  Disk.ensure_segment disk segment ~pages:seg_pages;
  let stable = Stable.create () in
  let vm = Vm.attach engine disk ~frames () in
  let log = Log_manager.attach engine stable in
  let rm =
    Recovery_mgr.create engine ~node:0 ~log ~vm
      ?checkpointing:(if checkpointed then Some checkpointing else None)
      ()
  in
  run_fiber engine (fun () ->
      for i = 0 to txns - 1 do
        let tid = Tid.top ~node:0 ~seq:(i + 1) in
        ignore (Recovery_mgr.append_tm_record rm (Record.Txn_begin tid));
        for j = 0 to writes_per_txn - 1 do
          let o = obj ((i * writes_per_txn) + j) in
          Vm.pin vm o ~access:`Random;
          let old_value = Vm.read vm o ~access:`Random in
          let new_value = Printf.sprintf "%08d" (((i * 7) + j) mod 100000000) in
          Vm.write vm o new_value;
          ignore (Recovery_mgr.log_value rm ~tid ~obj:o ~old_value ~new_value);
          Vm.unpin vm o
        done;
        let lsn = Recovery_mgr.append_tm_record rm (Record.Txn_commit tid) in
        Recovery_mgr.force_through rm lsn
      done);
  let checkpoints =
    match Recovery_mgr.checkpointer rm with
    | Some cp -> Checkpointer.cycles cp
    | None -> 0
  in
  let log_records = Log_manager.next_lsn log - Log_manager.first_lsn log in
  (* crash: every volatile structure is lost; rebuild over the surviving
     disk and stable log, then recover *)
  let vm' = Vm.attach engine disk ~frames () in
  let log' = Log_manager.attach engine stable in
  let rm' =
    Recovery_mgr.create engine ~node:0 ~log:log' ~vm:vm'
      ~instant_restart:(mode = `Instant) ()
  in
  let scanned, restart_us, replay_us, open_us, ttfc_us =
    run_fiber engine (fun () ->
        let t0 = Engine.now engine in
        let outcome = Recovery_mgr.recover rm' in
        let restart_us = Engine.now engine - t0 in
        probe_first_commit vm' rm';
        ( outcome.records_scanned,
          restart_us,
          outcome.replay_us,
          outcome.time_to_open_us,
          Engine.now engine - t0 ))
  in
  { txns; scanned; restart_us; replay_us; open_us; ttfc_us; log_records;
    checkpoints }

let run_points sizes =
  List.map
    (fun txns ->
      {
        off = run_arm ~mode:`Off ~txns;
        on_ = run_arm ~mode:`Anchored ~txns;
        instant = run_arm ~mode:`Instant ~txns;
      })
    sizes

(* Replay-time benchmark: parallel redo over the redo graph.

   One operation-logged workload builds the log (each transaction
   writes a hot counter on its own page plus two cold cells spread over
   the remaining pages, so the hot pages carry long per-page chains and
   the cold pages short ones). The crash instant is frozen by
   copying disk and stable log, then replayed once per fiber count: same
   log, same graph, only the redo fan-out differs. One fiber is the
   paper's serial schedule, the baseline every speedup is taken over.
   Virtual replay time (the redo+undo passes, excluding the analysis
   scan) is the figure of merit. *)

let replay_txns = 400

let replay_hot_cells = 8

let replay_loser_every = 10

let counter_obj cell = Object_id.make ~segment ~offset:(8 * cell) ~length:8

let register_counter rm vm =
  let apply ~op:_ ~arg =
    Scanf.sscanf arg "%d %d" (fun cell v ->
        let o = counter_obj cell in
        Vm.pin vm o ~access:`Random;
        Vm.write vm o (Printf.sprintf "%08d" v);
        Vm.unpin vm o)
  in
  Recovery_mgr.register_op_handler rm ~server:"counter"
    { redo = apply; undo = apply }

(* Build the workload once; returns the frozen crash-instant images. *)
let run_replay_workload () =
  let engine = Engine.create () in
  let disk = Disk.create engine in
  Disk.ensure_segment disk segment ~pages:seg_pages;
  let stable = Stable.create () in
  let vm = Vm.attach engine disk ~frames:seg_pages () in
  let log = Log_manager.attach engine stable in
  let rm = Recovery_mgr.create engine ~node:0 ~log ~vm () in
  register_counter rm vm;
  let shadow = Array.make (seg_pages * cells_per_page) 0 in
  let log_set tid cell v =
    let o = counter_obj cell in
    Vm.pin vm o ~access:`Random;
    Vm.write vm o (Printf.sprintf "%08d" v);
    Vm.unpin vm o;
    ignore
      (Recovery_mgr.log_operation rm ~tid ~server:"counter" ~op:"set"
         ~undo_arg:(Printf.sprintf "%d %d" cell shadow.(cell))
         ~redo_arg:(Printf.sprintf "%d %d" cell v)
         ~objs:[ o ]);
    shadow.(cell) <- v
  in
  run_fiber engine (fun () ->
      for i = 0 to replay_txns - 1 do
        let tid = Tid.top ~node:0 ~seq:(i + 1) in
        (* hot counter: one cell per page on pages 0..hot-1 *)
        log_set tid ((i mod replay_hot_cells) * cells_per_page) (i + 1);
        (* cold cells on pages hot..seg_pages-1 *)
        for j = 1 to 2 do
          let k = (i * 2) + j in
          let page =
            replay_hot_cells + (k mod (seg_pages - replay_hot_cells))
          in
          let cell =
            (page * cells_per_page)
            + (k / (seg_pages - replay_hot_cells) mod cells_per_page)
          in
          log_set tid cell k
        done;
        (* every replay_loser_every-th transaction crashes undecided *)
        if (i + 1) mod replay_loser_every <> 0 then begin
          let lsn = Recovery_mgr.append_tm_record rm (Record.Txn_commit tid) in
          Recovery_mgr.force_through rm lsn
        end
      done;
      Log_manager.force_all log);
  let log_records = Log_manager.next_lsn log - Log_manager.first_lsn log in
  (disk, stable, log_records)

type replay_arm = {
  fibers : int;
  arm_replay_us : int;
  arm_restart_us : int;
  stats : Parallel_redo.stats;
}

let run_replay_arm ~src_disk ~src_stable ~fibers =
  let engine = Engine.create () in
  let disk = Disk.copy src_disk ~engine in
  let stable = Stable.copy src_stable in
  let vm = Vm.attach engine disk ~frames:seg_pages () in
  let log = Log_manager.attach engine stable in
  let rm =
    Recovery_mgr.create engine ~node:0 ~log ~vm
      ~parallel_recovery:{ Parallel_redo.fibers } ()
  in
  register_counter rm vm;
  let outcome, arm_restart_us =
    run_fiber engine (fun () ->
        let t0 = Engine.now engine in
        let o = Recovery_mgr.recover rm in
        (o, Engine.now engine - t0))
  in
  {
    fibers;
    arm_replay_us = outcome.replay_us;
    arm_restart_us;
    stats = outcome.graph;
  }

type replay_result = {
  rr_log_records : int;
  arms : replay_arm list; (* first arm: one fiber, the serial schedule *)
}

let run_replay () =
  let src_disk, src_stable, rr_log_records = run_replay_workload () in
  let arms =
    List.map
      (fun fibers -> run_replay_arm ~src_disk ~src_stable ~fibers)
      [ 1; 2; 4; 8 ]
  in
  { rr_log_records; arms }

let speedup replay a =
  float_of_int (List.hd replay.arms).arm_replay_us
  /. float_of_int (max 1 a.arm_replay_us)

let json_file = "BENCH_recovery.json"

let write_json points replay =
  let oc = open_out json_file in
  Printf.fprintf oc
    "{\n  \"interval_us\": %d,\n  \"trickle\": %d,\n  \"points\": [\n"
    checkpointing.interval checkpointing.trickle;
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "    {\"txns\": %d, \"off_scanned\": %d, \"on_scanned\": %d, \
         \"off_restart_us\": %d, \"on_restart_us\": %d, \"off_replay_us\": \
         %d, \"on_replay_us\": %d, \"off_log_records\": %d, \
         \"on_log_records\": %d, \"checkpoints\": %d, \"scan_ratio\": \
         %.2f, \"off_ttfc_us\": %d, \"on_ttfc_us\": %d, \
         \"instant_ttfc_us\": %d, \"instant_open_us\": %d}%s\n"
        p.off.txns p.off.scanned p.on_.scanned p.off.restart_us
        p.on_.restart_us p.off.replay_us p.on_.replay_us p.off.log_records
        p.on_.log_records p.on_.checkpoints
        (float_of_int p.off.scanned /. float_of_int (max 1 p.on_.scanned))
        p.off.ttfc_us p.on_.ttfc_us p.instant.ttfc_us p.instant.open_us
        (if i = List.length points - 1 then "" else ","))
    points;
  output_string oc "  ],\n";
  Printf.fprintf oc
    "  \"replay\": {\n\
    \    \"txns\": %d,\n\
    \    \"log_records\": %d,\n\
    \    \"arms\": [\n"
    replay_txns replay.rr_log_records;
  List.iteri
    (fun i a ->
      let s = a.stats in
      Printf.fprintf oc
        "      {\"fibers\": %d, \"replay_us\": %d, \"restart_us\": %d, \
         \"speedup\": %.2f, \"op_records\": %d, \"value_records\": %d, \
         \"chain_edges\": %d, \"critical_path\": %d, \"width\": %d}%s\n"
        a.fibers a.arm_replay_us a.arm_restart_us (speedup replay a)
        s.op_records s.value_records s.chain_edges s.critical_path s.width
        (if i = List.length replay.arms - 1 then "" else ","))
    replay.arms;
  output_string oc "    ]\n  }\n}\n";
  close_out oc

let print_recovery () =
  Printf.printf
    "\nRestart cost: checkpoint-anchored recovery (interval %d us, trickle \
     %d pages)\n"
    checkpointing.interval checkpointing.trickle;
  Printf.printf "%s\n" (String.make 72 '-');
  Printf.printf "    %6s %12s %11s %14s %13s %6s\n" "txns" "off scanned"
    "on scanned" "off restart us" "on restart us" "ckpts";
  let points = run_points [ 50; 100; 200; 400 ] in
  List.iter
    (fun p ->
      Printf.printf "    %6d %12d %11d %14d %13d %6d\n" p.off.txns
        p.off.scanned p.on_.scanned p.off.restart_us p.on_.restart_us
        p.on_.checkpoints)
    points;
  Printf.printf
    "  (off: analysis reads the whole live log, so the scan grows with the\n\
    \   workload; on: the background daemon's fuzzy checkpoints anchor the\n\
    \   scan, so it stays bounded)\n";
  Printf.printf
    "\nTime to first commit: instant restart (serve while recovering)\n";
  Printf.printf "%s\n" (String.make 72 '-');
  Printf.printf "    %6s %8s %12s %15s %15s %12s\n" "txns" "records"
    "off ttfc us" "anchored ttfc" "instant ttfc" "open us";
  List.iter
    (fun p ->
      Printf.printf "    %6d %8d %12d %15d %15d %12d\n" p.off.txns
        p.off.log_records p.off.ttfc_us p.on_.ttfc_us p.instant.ttfc_us
        p.instant.open_us)
    points;
  Printf.printf
    "  (ttfc = restart + one probe transaction; instant opens after the\n\
    \   anchored analysis scan alone and replays the probe's page on its\n\
    \   first touch, so the curve stays flat as the log grows)\n";
  let replay = run_replay () in
  Printf.printf
    "\nReplay time: parallel redo (%d op-logged txns, %d log records; every \
     %dth transaction a loser)\n"
    replay_txns replay.rr_log_records replay_loser_every;
  Printf.printf "%s\n" (String.make 72 '-');
  Printf.printf "    %7s %12s %13s %8s %6s %6s %6s\n" "fibers" "replay us"
    "restart us" "speedup" "chain" "crit" "width";
  List.iter
    (fun a ->
      let s = a.stats in
      Printf.printf "    %7d %12d %13d %8.2f %6d %6d %6d\n" a.fibers
        a.arm_replay_us a.arm_restart_us (speedup replay a) s.chain_edges
        s.critical_path s.width)
    replay.arms;
  Printf.printf "  (one fiber is the serial schedule, the speedup baseline)\n";
  write_json points replay;
  Printf.printf "  (curves written to %s)\n" json_file
