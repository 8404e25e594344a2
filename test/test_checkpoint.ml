(* Fuzzy checkpoints, checkpoint-anchored recovery, and the background
   checkpoint daemon.

   The load-bearing property: with the daemon running, crash at an
   arbitrary instant and recover anchored at the last fuzzy checkpoint —
   the result must be indistinguishable from a full-log-scan recovery
   over a frozen copy of the same stable log and disk. *)

open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_accent
open Tabs_recovery
open Tabs_core
open Tabs_servers

let quick name f = Alcotest.test_case name `Quick f

(* --- rig-level tests (no Transaction Manager), as in test_recovery_unit *)

type rig = {
  engine : Engine.t;
  disk : Disk.t;
  stable : Stable.t;
  mutable vm : Vm.t;
  mutable log : Log_manager.t;
  mutable rm : Recovery_mgr.t;
}

let make_rig ?checkpointing ?log_space_limit () =
  let engine = Engine.create () in
  let disk = Disk.create engine in
  Disk.ensure_segment disk 1 ~pages:8;
  let stable = Stable.create () in
  let vm = Vm.attach engine disk ~frames:16 () in
  let log = Log_manager.attach engine stable in
  let rm =
    Recovery_mgr.create engine ~node:0 ~log ~vm ?checkpointing
      ?log_space_limit ()
  in
  { engine; disk; stable; vm; log; rm }

let crash_and_recover ?anchored rig =
  let vm = Vm.attach rig.engine rig.disk ~frames:16 () in
  let log = Log_manager.attach rig.engine rig.stable in
  let rm = Recovery_mgr.create rig.engine ~node:0 ~log ~vm () in
  rig.vm <- vm;
  rig.log <- log;
  rig.rm <- rm;
  Recovery_mgr.recover ?anchored rm

let obj n = Object_id.make ~segment:1 ~offset:(8 * n) ~length:8

let run_fiber rig f =
  let out = ref None in
  let _ = Engine.spawn rig.engine (fun () -> out := Some (f ())) in
  let _ = Engine.run rig.engine in
  Option.get !out

let write rig tid n value =
  Vm.pin rig.vm (obj n) ~access:`Random;
  let old_value = Vm.read rig.vm (obj n) ~access:`Random in
  Vm.write rig.vm (obj n) value;
  ignore
    (Recovery_mgr.log_value rig.rm ~tid ~obj:(obj n) ~old_value
       ~new_value:value);
  Vm.unpin rig.vm (obj n)

let commit rig tid =
  let lsn = Recovery_mgr.append_tm_record rig.rm (Record.Txn_commit tid) in
  Recovery_mgr.force_through rig.rm lsn

let v8 s = Printf.sprintf "%-8s" s

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
      ~checkpointing:{ Checkpointer.interval = 50_000; trickle = 4 }
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

let next_rand s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* Run a random concurrent workload on one node with the checkpoint
   daemon on, crash at a random instant, and recover twice: the live
   node restarts (checkpoint-anchored), and the reference oracle
   recovers a frozen copy of its stable log and disk with a full scan. Both must agree on the
   losers, the in-doubt set, and every byte of the data segment. *)
let crash_equivalence ~profile ~seed =
  let cells = 256 in
  let c =
    Cluster.create ~nodes:1 ~profile
      ~checkpointing:{ Checkpointer.interval = 20_000; trickle = 4 }
      ()
  in
  let node = Cluster.node c 0 in
  let arr =
    Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells ()
  in
  let tm = Node.tm node in
  for w = 0 to 2 do
    Cluster.spawn c ~node:0 (fun () ->
        let s = ref (seed + (w * 7919) + 1) in
        let rand n =
          s := next_rand !s;
          !s mod n
        in
        while true do
          (try
             Txn_lib.execute_transaction tm (fun tid ->
                 for _ = 0 to rand 3 do
                   Int_array_server.set arr tid (rand cells) (rand 1000)
                 done)
           with Errors.Transaction_is_aborted _ -> ());
          Engine.delay (1 + rand 5_000)
        done)
  done;
  let crash_at = 10_000 + (next_rand seed mod 500_000) in
  Cluster.run_until c ~time:crash_at;
  Node.crash node;
  (* reference: the oracle's full-scan recovery of the stable log and
     disk frozen at the crash *)
  let ref_outcome, disk_copy =
    Recovery_oracle.run ~disk:(Node.disk node)
      ~stable:(Log_manager.stable (Node.log node))
      ~handlers:(fun _ -> []) ()
  in
  (* live node: checkpoint-anchored restart *)
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        Node.restart node
          ~reinstall:(fun env ->
            ignore
              (Int_array_server.create env ~name:"a" ~segment:1 ~cells ()))
          ())
  in
  let tids = List.map Tid.to_string in
  Alcotest.(check (list string))
    "anchored and full-scan recovery agree on losers" (tids ref_outcome.losers)
    (tids outcome.losers);
  Alcotest.(check (list string))
    "and on the in-doubt set"
    (List.map (fun (t, _) -> Tid.to_string t) ref_outcome.in_doubt)
    (List.map (fun (t, _) -> Tid.to_string t) outcome.in_doubt);
  let pages = Disk.segment_pages (Node.disk node) 1 in
  for p = 0 to pages - 1 do
    let pid = { Disk.segment = 1; page = p } in
    if
      not
        (Page.equal
           (Disk.read_nocharge (Node.disk node) pid)
           (Disk.read_nocharge disk_copy pid))
    then
      Alcotest.failf "data page %d differs between anchored and full-scan" p
  done;
  true

let prop_crash_equivalence profile name =
  QCheck.Test.make ~name ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed -> crash_equivalence ~profile ~seed)

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
      ] );
  ]
