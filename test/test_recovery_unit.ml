(* Unit tests of the Recovery Manager's algorithms, driven directly at
   the Recovery_mgr level (no data servers): the single backward pass of
   value recovery across tricky interleavings, the status analysis, the
   prepared/in-doubt handling, and a model-based property over random
   commit/abort/crash schedules. *)

open Tabs_storage
open Tabs_wal
open Tabs_accent
open Tabs_recovery
open Crash_harness

let quick name f = Alcotest.test_case name `Quick f

let make_rig = make_rig ~pages:8

let read_disk rig n =
  let (pid : Disk.page_id) = List.hd (Object_id.pages (obj n)) in
  let page = Disk.read_nocharge rig.disk pid in
  String.sub page (8 * n mod Page.size) 8

let test_committed_redone () =
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let tid = Tid.top ~node:0 ~seq:1 in
      write rig tid 0 (v8 "new");
      commit rig tid);
  (* page never flushed: disk holds zeroes; recovery must install the
     committed value *)
  let outcome = run_fiber rig (fun () -> crash_and_recover rig) in
  Alcotest.(check int) "no losers" 0 (List.length outcome.losers);
  Alcotest.(check string) "redone to disk" (v8 "new") (read_disk rig 0)

let test_uncommitted_undone_from_disk () =
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let t1 = Tid.top ~node:0 ~seq:1 in
      write rig t1 0 (v8 "keep");
      commit rig t1;
      let t2 = Tid.top ~node:0 ~seq:2 in
      write rig t2 0 (v8 "dirty");
      (* WAL: force the log, then let the dirty page reach disk *)
      Log_manager.force_all rig.log;
      Vm.flush_all rig.vm);
  let outcome = run_fiber rig (fun () -> crash_and_recover rig) in
  Alcotest.(check int) "one loser" 1 (List.length outcome.losers);
  Alcotest.(check string) "old value restored" (v8 "keep") (read_disk rig 0)

let test_multiple_updates_same_txn () =
  (* a loser that updated the same object twice must roll back to the
     oldest old-value, even if undo half-finished before the crash *)
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let t1 = Tid.top ~node:0 ~seq:1 in
      write rig t1 0 (v8 "first");
      commit rig t1;
      let t2 = Tid.top ~node:0 ~seq:2 in
      write rig t2 0 (v8 "second");
      write rig t2 0 (v8 "third");
      Log_manager.force_all rig.log;
      Vm.flush_all rig.vm);
  ignore (run_fiber rig (fun () -> crash_and_recover rig));
  Alcotest.(check string) "back to the committed image" (v8 "first")
    (read_disk rig 0)

let test_abort_then_overwrite_then_crash () =
  (* T2 aborts (undone in place, locks released); T3 then commits a new
     value. The backward pass must finalize T3's value and ignore T2's
     stale record. *)
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let t1 = Tid.top ~node:0 ~seq:1 in
      write rig t1 0 (v8 "base");
      commit rig t1;
      let t2 = Tid.top ~node:0 ~seq:2 in
      write rig t2 0 (v8 "undone");
      Recovery_mgr.abort rig.rm ~tid:t2;
      let t3 = Tid.top ~node:0 ~seq:3 in
      write rig t3 0 (v8 "final");
      commit rig t3);
  ignore (run_fiber rig (fun () -> crash_and_recover rig));
  Alcotest.(check string) "latest committed wins" (v8 "final") (read_disk rig 0)

let test_prepared_applied_and_in_doubt () =
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let tid = Tid.top ~node:0 ~seq:4 in
      write rig tid 0 (v8 "maybe");
      let lsn = Recovery_mgr.append_tm_record rig.rm (Record.Txn_prepare (tid, 2)) in
      Recovery_mgr.force_through rig.rm lsn);
  let outcome = run_fiber rig (fun () -> crash_and_recover rig) in
  (* prepared data is applied ("reflect only the operations of committed
     and prepared transactions") but reported in doubt *)
  Alcotest.(check int) "in doubt" 1 (List.length outcome.in_doubt);
  (match outcome.in_doubt with
  | [ (_, coordinator) ] -> Alcotest.(check int) "coordinator" 2 coordinator
  | _ -> Alcotest.fail "expected one in-doubt txn");
  Alcotest.(check string) "applied" (v8 "maybe") (read_disk rig 0);
  Alcotest.(check int) "its objects need relocking" 1
    (List.length outcome.written_objects);
  (* the coordinator later says Abort: the chain is still walkable *)
  run_fiber rig (fun () ->
      match outcome.in_doubt with
      | [ (tid, _) ] -> Recovery_mgr.abort rig.rm ~tid
      | _ -> ());
  run_fiber rig (fun () -> Vm.flush_all rig.vm);
  Alcotest.(check string) "post-verdict undo" (String.make 8 '\000')
    (read_disk rig 0)

(* An acceptor's undecided accept for a foreign transaction, forced:
   it belongs to no local transaction chain. *)
let log_accept rig =
  let tid = Tid.top ~node:1 ~seq:7 in
  let accept = Record.Paxos_accept { tid; part = 1; ballot = 3; yes = true } in
  let lsn =
    run_fiber rig (fun () ->
        let lsn = Recovery_mgr.append_tm_record rig.rm accept in
        Recovery_mgr.force_through rig.rm lsn;
        lsn)
  in
  (accept, lsn)

(* crash and restart: the acceptor state must come back *)
let restart_keeps rig what accept =
  let outcome = run_fiber rig (fun () -> crash_and_recover rig) in
  Alcotest.(check bool) (what ^ " keeps the accept") true
    (List.map snd outcome.Recovery_mgr.paxos = [ accept ])

let test_paxos_state_below_checkpoint () =
  (* a checkpoint taken while the acceptor's floor holds its record
     carries that floor, so the anchored scan still reads the record *)
  let rig = make_rig () in
  let accept, lsn = log_accept rig in
  Recovery_mgr.set_truncation_floor_source rig.rm (fun () -> Some lsn);
  ignore (run_fiber rig (fun () -> Recovery_mgr.checkpoint rig.rm));
  restart_keeps rig "restart" accept

let test_paxos_state_survives_second_restart () =
  (* two crashes in a row: the first restart re-appends the condensed
     acceptor state below its closing checkpoint, whose acceptor floor
     keeps it in the second restart's anchored scan *)
  let rig = make_rig () in
  let accept, _ = log_accept rig in
  List.iter
    (fun what -> restart_keeps rig what accept)
    [ "first restart"; "second restart" ]

let test_paxos_state_survives_crash_in_close () =
  (* the node crashes again while the restart's closing checkpoint is
     being forced, before anything is truncated *)
  let rig = make_rig () in
  let accept, _ = log_accept rig in
  let crashed = ref false in
  Tabs_sim.Engine.set_tracer rig.engine
    (Some
       (fun ~time:_ -> function
         | Recovery_mgr.Rm_checkpoint _ when not !crashed ->
             crashed := true;
             Tabs_sim.Engine.crash_node rig.engine 0
         | _ -> ()));
  ignore
    (Tabs_sim.Engine.spawn rig.engine ~node:0 (fun () ->
         ignore (crash_and_recover rig)));
  ignore (Tabs_sim.Engine.run rig.engine);
  Tabs_sim.Engine.set_tracer rig.engine None;
  Alcotest.(check bool) "crashed in the close" true !crashed;
  restart_keeps rig "next restart" accept

let test_subtxn_abort_record_respected () =
  (* a subtransaction abort record makes its updates losers even though
     the top-level transaction commits *)
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let top = Tid.top ~node:0 ~seq:5 in
      let sub = Tid.child top ~index:0 in
      write rig top 0 (v8 "parent");
      write rig sub 1 (v8 "child");
      Recovery_mgr.abort rig.rm ~tid:sub;
      commit rig top);
  ignore (run_fiber rig (fun () -> crash_and_recover rig));
  Alcotest.(check string) "parent update survives" (v8 "parent") (read_disk rig 0);
  Alcotest.(check string) "aborted subtxn update does not"
    (String.make 8 '\000') (read_disk rig 1)

let test_checkpoint_bounds_nothing_lost () =
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let t1 = Tid.top ~node:0 ~seq:6 in
      write rig t1 0 (v8 "before");
      commit rig t1;
      ignore (Recovery_mgr.checkpoint rig.rm);
      let t2 = Tid.top ~node:0 ~seq:7 in
      write rig t2 1 (v8 "after");
      commit rig t2);
  ignore (run_fiber rig (fun () -> crash_and_recover rig));
  Alcotest.(check string) "pre-checkpoint update" (v8 "before") (read_disk rig 0);
  Alcotest.(check string) "post-checkpoint update" (v8 "after") (read_disk rig 1)

(* Model-based property: a random schedule of commit/abort/crash over
   several objects; after every crash+recovery, the disk must equal the
   model of committed values. *)
let prop_random_schedules =
  QCheck.Test.make ~name:"value recovery matches model on random schedules"
    ~count:40
    QCheck.(
      list_of_size (Gen.int_bound 50)
        (pair (int_range 0 3) (pair (int_range 0 3) (int_range 0 2))))
    (fun script ->
      let rig = make_rig () in
      let model = Array.make 4 (String.make 8 '\000') in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (n, (value_tag, action)) ->
          incr seq;
          let value = v8 (Printf.sprintf "v%d" value_tag) in
          match action with
          | 0 ->
              (* committed write *)
              run_fiber rig (fun () ->
                  let tid = Tid.top ~node:0 ~seq:!seq in
                  write rig tid n value;
                  commit rig tid);
              model.(n) <- value
          | 1 ->
              (* aborted write *)
              run_fiber rig (fun () ->
                  let tid = Tid.top ~node:0 ~seq:!seq in
                  write rig tid n value;
                  Recovery_mgr.abort rig.rm ~tid)
          | _ ->
              (* uncommitted write, everything leaks to disk, crash *)
              run_fiber rig (fun () ->
                  let tid = Tid.top ~node:0 ~seq:!seq in
                  write rig tid n value;
                  Log_manager.force_all rig.log;
                  Vm.flush_all rig.vm);
              ignore (run_fiber rig (fun () -> crash_and_recover rig));
              for i = 0 to 3 do
                if read_disk rig i <> model.(i) then ok := false
              done)
        script;
      ignore (run_fiber rig (fun () -> crash_and_recover rig));
      for i = 0 to 3 do
        if read_disk rig i <> model.(i) then ok := false
      done;
      !ok)

let suites =
  [
    ( "recovery.value",
      [
        quick "committed redone" test_committed_redone;
        quick "uncommitted undone" test_uncommitted_undone_from_disk;
        quick "multi-update rollback" test_multiple_updates_same_txn;
        quick "abort then overwrite" test_abort_then_overwrite_then_crash;
        quick "prepared in doubt" test_prepared_applied_and_in_doubt;
        quick "subtxn abort record" test_subtxn_abort_record_respected;
        quick "paxos state below a checkpoint" test_paxos_state_below_checkpoint;
        quick "paxos state survives a second restart"
          test_paxos_state_survives_second_restart;
        quick "paxos state survives a crash in the close"
          test_paxos_state_survives_crash_in_close;
        quick "checkpoint bounds" test_checkpoint_bounds_nothing_lost;
        QCheck_alcotest.to_alcotest prop_random_schedules;
      ] );
  ]
