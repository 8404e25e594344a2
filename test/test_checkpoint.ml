(* Fuzzy checkpoints, checkpoint-anchored recovery, and the background
   checkpoint daemon.

   The load-bearing property: with the daemon running, crash at an
   arbitrary instant and recover anchored at the last fuzzy checkpoint —
   the result must be indistinguishable from a full-log-scan recovery
   over a frozen copy of the same stable log and disk. The paper's
   configuration, every feature off, is held to the same oracle. *)

open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_accent
open Tabs_recovery
open Tabs_core
open Crash_harness

let quick name f = Alcotest.test_case name `Quick f

(* --- rig-level tests (no Transaction Manager) ------------------------ *)

let make_rig = make_rig ~pages:8

(* The same workload with and without a mid-way checkpoint: anchoring
   must make the restart analysis scan strictly shorter. *)
let test_scan_drops_after_checkpoint () =
  let scanned ~with_checkpoint =
    let rig = make_rig () in
    run_fiber rig (fun () ->
        for i = 1 to 12 do
          let tid = Tid.top ~node:0 ~seq:i in
          write rig tid (i mod 8) (v8 (string_of_int i));
          commit rig tid;
          (* the flush stands in for the daemon's trickle write-back:
             a checkpoint only raises the scan anchor past pages whose
             recovery LSNs have moved on *)
          if with_checkpoint && i = 6 then begin
            Vm.flush_all rig.vm;
            ignore (Recovery_mgr.checkpoint rig.rm)
          end
        done);
    let outcome = run_fiber rig (fun () -> crash_and_recover rig) in
    outcome.records_scanned
  in
  let without = scanned ~with_checkpoint:false in
  let with_ck = scanned ~with_checkpoint:true in
  Alcotest.(check bool)
    (Printf.sprintf "scan shrinks (%d with < %d without)" with_ck without)
    true
    (with_ck < without)

(* A fuzzy checkpoint taken while a transaction is mid-flight must not
   let the anchored scan start past the live transaction's first update
   (nor past a dirty page's recovery LSN). *)
let test_fuzzy_checkpoint_covers_live_txn () =
  let rig = make_rig () in
  run_fiber rig (fun () ->
      let t1 = Tid.top ~node:0 ~seq:1 in
      write rig t1 0 (v8 "keep");
      commit rig t1;
      let t2 = Tid.top ~node:0 ~seq:2 in
      write rig t2 0 (v8 "dirty");
      (* checkpoint mid-transaction: t2 is live, page 0 is dirty *)
      ignore (Recovery_mgr.checkpoint rig.rm);
      (* the uncommitted write leaks to disk *)
      Log_manager.force_all rig.log;
      Vm.flush_all rig.vm);
  let outcome = run_fiber rig (fun () -> crash_and_recover rig) in
  Alcotest.(check int) "one loser" 1 (List.length outcome.losers);
  let page =
    Disk.read_nocharge rig.disk { Disk.segment = 1; page = 0 }
  in
  Alcotest.(check string) "old value restored" (v8 "keep")
    (Page.sub page ~off:0 ~len:8)

(* With the daemon configured, the foreground reclamation path only
   requests a background cycle; the daemon does the flushing,
   checkpointing, and truncation. *)
let test_daemon_reclaims_in_background () =
  let rig =
    make_rig
      ~checkpointing:50_000
      ~log_space_limit:2048 ()
  in
  run_fiber rig (fun () ->
      for i = 1 to 64 do
        let tid = Tid.top ~node:0 ~seq:i in
        write rig tid (i mod 8) (v8 (string_of_int i));
        commit rig tid
      done);
  let cp = Option.get (Recovery_mgr.checkpointer rig.rm) in
  Alcotest.(check bool) "daemon cycled" true (Checkpointer.cycles cp > 0);
  Alcotest.(check bool) "daemon reclaimed log records" true
    (Checkpointer.reclaimed cp > 0);
  Alcotest.(check int) "reclaimed = truncated prefix"
    (Log_manager.first_lsn rig.log) (Checkpointer.reclaimed cp);
  Alcotest.(check bool) "daemon trickled pages out" true
    (Checkpointer.pages_written cp > 0);
  (* the foreground path never reclaims synchronously *)
  let sync =
    run_fiber rig (fun () -> Recovery_mgr.maybe_reclaim rig.rm)
  in
  Alcotest.(check bool) "foreground path defers to the daemon" false sync

(* --- the crash-equivalence property over full nodes ------------------ *)

(* Run a random concurrent workload on one node with the checkpoint
   daemon on, crash at a random instant, and recover twice: the live
   node restarts (checkpoint-anchored), and the reference oracle
   recovers a frozen copy of its stable log and disk with a full scan. Both must agree on the
   losers, the in-doubt set, and every byte of the data segment. *)
let prop_crash_equivalence profile name =
  QCheck.Test.make ~name ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c =
        Cluster.create ~nodes:1 ~profile
          ~checkpointing:20_000
          ()
      in
      ignore
        (crash_matches_oracle c ~what:"anchored restart" ~seed ~cells:256
           ~accounts:0 ~think:5_000 ~crash_from:10_000 ~window:500_000 ());
      true)

(* The paper's configuration: every feature off, the same crash at a
   random instant, the same comparison with the oracle. *)
let paper_crash_equivalence ~profile ~seed =
  ignore
    (crash_matches_oracle
       (Cluster.create ~nodes:1 ~profile ())
       ~what:"every-feature-off restart" ~seed ~cells:128 ~accounts:64
       ~think:2_000 ~crash_from:60_000 ~window:2_000_000 ())

let prop_paper_equivalence profile name =
  QCheck.Test.make ~name ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      paper_crash_equivalence ~profile ~seed;
      true)

let test_paper_stress () =
  for k = 1 to 300 do
    paper_crash_equivalence ~profile:Profile.Classic ~seed:(k * 3571)
  done

let suites =
  [
    ( "checkpoint",
      [
        quick "scan drops after checkpoint" test_scan_drops_after_checkpoint;
        quick "fuzzy checkpoint covers live txn"
          test_fuzzy_checkpoint_covers_live_txn;
        quick "daemon reclaims in background"
          test_daemon_reclaims_in_background;
        QCheck_alcotest.to_alcotest
          (prop_crash_equivalence Profile.Classic
             "crash at a random instant: anchored = full scan (Classic)");
        QCheck_alcotest.to_alcotest
          (prop_crash_equivalence Profile.Integrated
             "crash at a random instant: anchored = full scan (Integrated)");
        QCheck_alcotest.to_alcotest
          (prop_paper_equivalence Profile.Classic
             "crash at a random instant, every feature off (Classic)");
        QCheck_alcotest.to_alcotest
          (prop_paper_equivalence Profile.Integrated
             "crash at a random instant, every feature off (Integrated)");
        Alcotest.test_case "300-seed stress: every feature off" `Slow
          test_paper_stress;
      ] );
  ]
