(* End-to-end tests over full TABS nodes: the integer array server
   driven through real transactions, local and distributed commits,
   aborts, crashes and recovery, checkpoints, and in-doubt blocking. *)

open Tabs_sim
open Tabs_wal
open Tabs_core
open Tabs_servers

let quick name f = Alcotest.test_case name `Quick f

let make_cluster ?(nodes = 1) () = Cluster.create ~nodes ()

let make_array ?(name = "array") ?(cells = 256) node =
  Int_array_server.create (Node.env node) ~name ~segment:1 ~cells ()

(* Reinstaller used by restart tests. *)
let reinstall_array ?(name = "array") ?(cells = 256) holder env =
  holder := Some (Int_array_server.create env ~name ~segment:1 ~cells ())

let test_commit_persists () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  let result =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Int_array_server.set arr tid 3 42;
            Int_array_server.set arr tid 7 99);
        Txn_lib.execute_transaction tm (fun tid ->
            (Int_array_server.get arr tid 3, Int_array_server.get arr tid 7)))
  in
  Alcotest.(check (pair int int)) "committed values readable" (42, 99) result

let test_abort_undoes () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  let result =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Int_array_server.set arr tid 5 10);
        let tid = Txn_lib.begin_transaction tm () in
        Int_array_server.set arr tid 5 77;
        Txn_lib.abort_transaction tm tid;
        Txn_lib.execute_transaction tm (fun tid2 ->
            Int_array_server.get arr tid2 5))
  in
  Alcotest.(check int) "aborted write rolled back" 10 result

let test_abort_releases_locks () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  let ok =
    Cluster.run_fiber c ~node:0 (fun () ->
        let t1 = Txn_lib.begin_transaction tm () in
        Int_array_server.set arr t1 0 1;
        Txn_lib.abort_transaction tm t1;
        (* a second transaction can take the write lock immediately *)
        Txn_lib.execute_transaction tm (fun t2 ->
            Int_array_server.set arr t2 0 2);
        true)
  in
  Alcotest.(check bool) "no residual locks" true ok

let test_isolation_between_txns () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  let observed = ref (-1) in
  Cluster.spawn c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set arr tid 9 111;
          (* hold the lock for a while before committing *)
          Engine.delay 50_000));
  Cluster.spawn c ~node:0 (fun () ->
      Engine.delay 1_000;
      Txn_lib.execute_transaction tm (fun tid ->
          (* waits for the writer's lock, so sees the committed value *)
          observed := Int_array_server.get arr tid 9));
  Cluster.run c;
  Alcotest.(check int) "reader blocked until commit" 111 !observed

let test_out_of_range () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  let got_error =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        let fired =
          try
            ignore (Int_array_server.get arr tid 100_000);
            false
          with Errors.Server_error "IndexOutOfRange" -> true
        in
        Txn_lib.abort_transaction tm tid;
        fired)
  in
  Alcotest.(check bool) "IndexOutOfRange raised" true got_error

(* Crash / recovery ---------------------------------------------------- *)

let test_crash_preserves_committed () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set arr tid 1 1234));
  Node.crash node;
  let holder = ref None in
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        Node.restart node ~reinstall:(reinstall_array holder) ())
  in
  Alcotest.(check (list string)) "no losers" []
    (List.map Tid.to_string outcome.losers);
  let arr' = Option.get !holder in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm node) (fun tid ->
            Int_array_server.get arr' tid 1))
  in
  Alcotest.(check int) "committed survives crash" 1234 v

let test_crash_rolls_back_uncommitted () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  (* Initial committed value. *)
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set arr tid 2 50));
  (* A transaction updates but never commits; force its dirty state out
     so the on-disk page holds uncommitted data, then crash. *)
  Cluster.spawn c ~node:0 (fun () ->
      let tid = Txn_lib.begin_transaction tm () in
      Int_array_server.set arr tid 2 666;
      (* make sure the log reached stable storage and the page leaks to
         disk: flush everything *)
      Tabs_wal.Log_manager.force_all (Node.log node);
      Tabs_accent.Vm.flush_all (Node.vm node);
      Engine.delay 1_000_000 (* still holding the transaction open *));
  Cluster.run_until c ~time:500_000;
  Node.crash node;
  let holder = ref None in
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        Node.restart node ~reinstall:(reinstall_array holder) ())
  in
  Alcotest.(check int) "one loser rolled back" 1 (List.length outcome.losers);
  let arr' = Option.get !holder in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm node) (fun tid ->
            Int_array_server.get arr' tid 2))
  in
  Alcotest.(check int) "rolled back to last committed" 50 v

(* Two frames; T1 commits 111 to cell 0 (page 0), then an evictor reads
   pages 1 and 2, paging page 0 out. T2 sets 222 on cell 0 while the
   page-out's first protocol message is in flight, and stays open: its
   record is appended but never forced. The page-out must write the
   image it snapshotted before that message, so after a crash and
   restart cell 0 reads 111. Before the snapshot moved, offsets of
   32.0-35.0 ms wrote 222 under T1's sequence number, with no record
   to undo it. *)
let test_page_out_snapshot_precedes_racing_write () =
  List.iter
    (fun offset ->
      let c = Cluster.create ~frames:2 ~nodes:1 () in
      let node = Cluster.node c 0 in
      let arr = make_array node in
      let tm = Node.tm node in
      Cluster.run_fiber c ~node:0 (fun () ->
          Txn_lib.execute_transaction tm (fun tid ->
              Int_array_server.set arr tid 0 111));
      let start = Engine.now (Cluster.engine c) in
      Cluster.spawn c ~node:0 (fun () ->
          Txn_lib.execute_transaction tm (fun tid ->
              ignore (Int_array_server.get arr tid 64);
              ignore (Int_array_server.get arr tid 128)));
      Cluster.spawn c ~node:0 (fun () ->
          Engine.delay offset;
          let tid = Txn_lib.begin_transaction tm () in
          Int_array_server.set arr tid 0 222;
          Engine.delay 10_000_000);
      Cluster.run_until c ~time:(start + 1_000_000);
      Node.crash node;
      let holder = ref None in
      ignore
        (Cluster.run_fiber c ~node:0 (fun () ->
             Node.restart node ~reinstall:(reinstall_array holder) ()));
      let arr' = Option.get !holder in
      let v =
        Cluster.run_fiber c ~node:0 (fun () ->
            Txn_lib.execute_transaction (Node.tm node) (fun tid ->
                Int_array_server.get arr' tid 0))
      in
      Alcotest.(check int) (Printf.sprintf "cell 0, T2 at +%d us" offset) 111 v)
    [ 32_000; 33_500; 35_000 ]

let test_crash_before_force_loses_nothing_committed () =
  (* A transaction that never reached commit leaves no trace even when
     its log records were only in the volatile buffer. *)
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  Cluster.spawn c ~node:0 (fun () ->
      let tid = Txn_lib.begin_transaction tm () in
      Int_array_server.set arr tid 4 9;
      Engine.delay 1_000_000);
  Cluster.run_until c ~time:100_000;
  Node.crash node;
  let holder = ref None in
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        Node.restart node ~reinstall:(reinstall_array holder) ())
  in
  (* Nothing was forced, so the log may be empty; either way the value
     must read as the initial zero. *)
  ignore outcome;
  let arr' = Option.get !holder in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm node) (fun tid ->
            Int_array_server.get arr' tid 4))
  in
  Alcotest.(check int) "unforced uncommitted invisible" 0 v

let test_recovery_idempotent () =
  (* Crashing again right after recovery and recovering again must give
     the same state. *)
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set arr tid 8 800));
  Node.crash node;
  let holder = ref None in
  ignore
    (Cluster.run_fiber c ~node:0 (fun () ->
         Node.restart node ~reinstall:(reinstall_array holder) ()));
  Node.crash node;
  ignore
    (Cluster.run_fiber c ~node:0 (fun () ->
         Node.restart node ~reinstall:(reinstall_array holder) ()));
  let arr' = Option.get !holder in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm node) (fun tid ->
            Int_array_server.get arr' tid 8))
  in
  Alcotest.(check int) "double recovery stable" 800 v

(* Distributed ----------------------------------------------------------- *)

let test_two_node_commit () =
  let c = make_cluster ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let a0 = make_array ~name:"a0" n0 in
  let _a1 = make_array ~name:"a1" n1 in
  let tm = Node.tm n0 in
  let rpc = Node.rpc n0 in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Int_array_server.set a0 tid 0 5;
            Int_array_server.call_set rpc ~dest:1 ~server:"a1" tid 0 6);
        Txn_lib.execute_transaction tm (fun tid ->
            let local = Int_array_server.get a0 tid 0 in
            let remote = Int_array_server.call_get rpc ~dest:1 ~server:"a1" tid 0 in
            (local, remote)))
  in
  Alcotest.(check (pair int int)) "both nodes committed" (5, 6) v

(* A committed two-node transfer leaves nothing queued behind it: the
   vote and ack time-outs, the RPC time-out and the participant's orphan
   watchdog are all cancelled when their waits end, so the run drains
   when the transaction returns, after its last traced event, instead
   of when the longest timer (10 s) would have fired. *)
let test_two_node_drains_at_last_event () =
  let c = make_cluster ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let a0 = make_array ~name:"a0" n0 in
  let _a1 = make_array ~name:"a1" n1 in
  let recorder = Tabs_obs.Recorder.attach (Cluster.engine c) in
  let returned =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm n0) (fun tid ->
            Int_array_server.set a0 tid 0 (-5);
            Int_array_server.call_set (Node.rpc n0) ~dest:1 ~server:"a1" tid 0 5);
        Engine.now (Cluster.engine c))
  in
  let last =
    List.fold_left
      (fun _ (e : Tabs_obs.Recorder.entry) -> e.time)
      0 (Tabs_obs.Recorder.entries recorder)
  in
  Alcotest.(check bool) "last event before the return" true (last <= returned);
  Alcotest.(check int) "drained at the return" returned
    (Engine.now (Cluster.engine c))

let test_two_node_abort_undoes_remotely () =
  let c = make_cluster ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let a0 = make_array ~name:"a0" n0 in
  let _a1 = make_array ~name:"a1" n1 in
  let tm = Node.tm n0 in
  let rpc = Node.rpc n0 in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        Int_array_server.set a0 tid 0 5;
        Int_array_server.call_set rpc ~dest:1 ~server:"a1" tid 0 6;
        Txn_lib.abort_transaction tm tid;
        Txn_lib.execute_transaction tm (fun tid2 ->
            let local = Int_array_server.get a0 tid2 0 in
            let remote = Int_array_server.call_get rpc ~dest:1 ~server:"a1" tid2 0 in
            (local, remote)))
  in
  Alcotest.(check (pair int int)) "abort undone on both nodes" (0, 0) v

let test_three_node_commit () =
  let c = make_cluster ~nodes:3 () in
  let arrays =
    List.map
      (fun node ->
        make_array ~name:(Printf.sprintf "a%d" (Node.id node)) node)
      (Cluster.nodes c)
  in
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  let vs =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Int_array_server.set (List.nth arrays 0) tid 0 10;
            Int_array_server.call_set rpc ~dest:1 ~server:"a1" tid 0 11;
            Int_array_server.call_set rpc ~dest:2 ~server:"a2" tid 0 12);
        Txn_lib.execute_transaction tm (fun tid ->
            [
              Int_array_server.get (List.nth arrays 0) tid 0;
              Int_array_server.call_get rpc ~dest:1 ~server:"a1" tid 0;
              Int_array_server.call_get rpc ~dest:2 ~server:"a2" tid 0;
            ]))
  in
  Alcotest.(check (list int)) "three-node atomic commit" [ 10; 11; 12 ] vs

let test_subordinate_crash_aborts () =
  (* The remote participant crashes before the coordinator commits: the
     coordinator must abort, and node 0's tentative write must roll
     back. *)
  let c = make_cluster ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let a0 = make_array ~name:"a0" n0 in
  let _a1 = make_array ~name:"a1" n1 in
  let tm = Node.tm n0 in
  let rpc = Node.rpc n0 in
  let outcome = ref None in
  let remote_done = ref false in
  Cluster.spawn c ~node:0 (fun () ->
      let tid = Txn_lib.begin_transaction tm () in
      Int_array_server.set a0 tid 0 5;
      Int_array_server.call_set rpc ~dest:1 ~server:"a1" tid 0 6;
      remote_done := true;
      (* give the subordinate time to die before we try to commit *)
      Engine.delay 300_000;
      outcome := Some (Txn_lib.end_transaction tm tid));
  (* Watcher (on no node): crash the subordinate as soon as the remote
     operation has completed. *)
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         while not !remote_done do
           Engine.delay 1_000
         done;
         Node.crash n1));
  Cluster.run_until c ~time:30_000_000;
  Alcotest.(check (option bool)) "commit refused" (Some false) !outcome;
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Int_array_server.get a0 tid 0))
  in
  Alcotest.(check int) "local tentative write undone" 0 v

let test_coordinator_crash_in_doubt_then_resolved () =
  (* Subordinate prepares; the coordinator crashes after forcing its
     commit record but before the commit datagram goes out. The
     subordinate is blocked in doubt — the 2PC failure mode the paper
     acknowledges — until the restarted coordinator answers its status
     query with Committed (resolved from the coordinator's log). *)
  let c = make_cluster ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let a0 = make_array ~name:"a0" n0 in
  let _a1 = make_array ~name:"a1" n1 in
  let tm = Node.tm n0 in
  let rpc = Node.rpc n0 in
  let the_tid = ref None in
  Cluster.spawn c ~node:0 (fun () ->
      let tid = Txn_lib.begin_transaction tm () in
      the_tid := Some tid;
      Int_array_server.set a0 tid 0 5;
      Int_array_server.call_set rpc ~dest:1 ~server:"a1" tid 0 6;
      ignore (Txn_lib.end_transaction tm tid));
  (* Watcher: crash the coordinator the moment its commit record is
     durable (outcome known locally) — before the commit datagram is
     sent. *)
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let rec watch () =
           Engine.delay 500;
           let decided =
             match !the_tid with
             | Some tid -> Tabs_tm.Txn_mgr.outcome_of tm tid <> None
             | None -> false
           in
           if decided then Node.crash n0 else watch ()
         in
         watch ()));
  Cluster.run_until c ~time:2_000_000;
  (* The subordinate must be blocked in doubt, its datum locked. *)
  Alcotest.(check int) "subordinate in doubt" 1
    (List.length (Tabs_tm.Txn_mgr.in_doubt (Node.tm n1)));
  (* Restart the coordinator; its Transaction Manager re-learns the
     outcome from the recovered log and answers the status query. *)
  let holder = ref None in
  ignore
    (Cluster.run_fiber c ~node:0 (fun () ->
         Node.restart n0 ~reinstall:(reinstall_array ~name:"a0" holder) ()));
  Cluster.run_until c ~time:(Engine.now (Cluster.engine c) + 30_000_000);
  Alcotest.(check int) "subordinate resolved" 0
    (List.length (Tabs_tm.Txn_mgr.in_doubt (Node.tm n1)));
  let v1 =
    Cluster.run_fiber c ~node:1 (fun () ->
        Txn_lib.execute_transaction (Node.tm n1) (fun tid ->
            Int_array_server.call_get (Node.rpc n1) ~dest:1 ~server:"a1" tid 0))
  in
  let a0' = Option.get !holder in
  let v0 =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm n0) (fun tid ->
            Int_array_server.get a0' tid 0))
  in
  Alcotest.(check (pair int int)) "both sides converged to commit" (5, 6)
    (v0, v1)

let test_prepared_participant_crash_and_resolution ~writes () =
  (* The subordinate crashes AFTER forcing its prepare record but
     BEFORE its vote reaches the coordinator. The coordinator times out
     and aborts. The restarted subordinate comes back in doubt with the
     prepared data applied and relocked. It crashes again the moment
     that restart returns: the restart's closing checkpoint must carry
     the in-doubt set, or the second restart, anchored above the prepare
     record, forgets it. A reader (no read-only optimization, so it
     prepares) has a prepare record but no update chain to keep the scan
     below it. Once back, its status query returns Aborted, and the undo
     uses the update chain restored from the log. *)
  let c = Cluster.create ~nodes:2 ~read_only_optimization:writes () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let a0 = make_array ~name:"a0" n0 in
  let _a1 = make_array ~name:"a1" n1 in
  let tm = Node.tm n0 in
  let rpc = Node.rpc n0 in
  Cluster.spawn c ~node:0 (fun () ->
      let tid = Txn_lib.begin_transaction tm () in
      Int_array_server.set a0 tid 0 5;
      if writes then Int_array_server.call_set rpc ~dest:1 ~server:"a1" tid 0 6
      else ignore (Int_array_server.call_get rpc ~dest:1 ~server:"a1" tid 0);
      ignore (Txn_lib.end_transaction tm tid));
  (* watcher: kill the subordinate the moment it is prepared, before
     its vote datagram leaves *)
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let rec watch () =
           Engine.delay 500;
           if Tabs_tm.Txn_mgr.in_doubt (Node.tm n1) <> [] then Node.crash n1
           else watch ()
         in
         watch ()));
  Cluster.run_until c ~time:5_000_000;
  (* the coordinator has timed out and aborted by now *)
  let v0 =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Int_array_server.get a0 tid 0))
  in
  Alcotest.(check int) "coordinator aborted its half" 0 v0;
  (* restart the subordinate: recovery applies the prepared update and
     reports it in doubt; relock it before resolution starts *)
  let holder = ref None in
  let restart what =
    let relocked = ref false in
    let outcome =
      Cluster.run_fiber c ~node:1 (fun () ->
          Node.restart n1
            ~reinstall:(fun env ->
              holder :=
                Some
                  (Int_array_server.create env ~name:"a1" ~segment:1
                     ~cells:256 ()))
            ~after_recovery:(fun outcome ->
              let arr = Option.get !holder in
              Server_lib.relock_in_doubt
                (Int_array_server.server arr)
                outcome.written_objects;
              relocked := outcome.written_objects <> [])
            ())
    in
    Alcotest.(check int) (what ^ " in doubt") 1 (List.length outcome.in_doubt);
    Alcotest.(check bool) (what ^ " relocked in-doubt data") writes !relocked
  in
  restart "first restart";
  Node.crash n1;
  restart "second restart";
  (* resolution: the status query returns Aborted; the undo runs *)
  Cluster.run_until c ~time:(Engine.now (Cluster.engine c) + 60_000_000);
  Alcotest.(check int) "resolved" 0
    (List.length (Tabs_tm.Txn_mgr.in_doubt (Node.tm n1)));
  let arr = Option.get !holder in
  let v1 =
    Cluster.run_fiber c ~node:1 (fun () ->
        Txn_lib.execute_transaction (Node.tm n1) (fun tid ->
            Int_array_server.get arr tid 0))
  in
  Alcotest.(check int) "prepared update undone after Abort verdict" 0 v1

(* Checkpoints and reclamation ------------------------------------------ *)

let test_checkpoint_and_recover () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set arr tid 0 1);
      Node.checkpoint node;
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set arr tid 1 2));
  Node.crash node;
  let holder = ref None in
  ignore
    (Cluster.run_fiber c ~node:0 (fun () ->
         Node.restart node ~reinstall:(reinstall_array holder) ()));
  let arr' = Option.get !holder in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm node) (fun tid ->
            (Int_array_server.get arr' tid 0, Int_array_server.get arr' tid 1)))
  in
  Alcotest.(check (pair int int)) "both updates survive" (1, 2) v

(* A checkpoint between a transaction's begin and its first operation
   must list it: the anchored restart rolls it back, as the full scan
   does, instead of losing it below the anchor. *)
let test_checkpoint_after_begin_lists_txn () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  ignore (make_array node);
  Cluster.run_fiber c ~node:0 (fun () ->
      ignore (Tabs_tm.Txn_mgr.begin_txn (Node.tm node));
      Node.checkpoint node);
  Node.crash node;
  let oracle, _ =
    Recovery_oracle.run ~disk:(Node.disk node)
      ~stable:(Log_manager.stable (Node.log node))
      ~handlers:(fun _ -> []) ()
  in
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        Node.restart node ~reinstall:(reinstall_array (ref None)) ())
  in
  let tids = List.map Tid.to_string in
  Alcotest.(check (list string)) "anchored restart and full scan: losers"
    (tids oracle.losers) (tids outcome.losers)

let test_log_reclamation () =
  let c = Cluster.create ~nodes:1 ~log_space_limit:4096 () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  Cluster.run_fiber c ~node:0 (fun () ->
      for i = 0 to 63 do
        Txn_lib.execute_transaction tm (fun tid ->
            Int_array_server.set arr tid (i mod 16) i)
      done;
      (* the Transaction Manager's periodic checkpoint may already have
         reclaimed; the explicit call covers the remainder either way *)
      ignore (Tabs_recovery.Recovery_mgr.maybe_reclaim (Node.rm node)));
  Alcotest.(check bool) "log stays within its space limit" true
    (Tabs_wal.Log_manager.stable_bytes (Node.log node) <= 4096);
  (* The log is now short, and recovery still works. *)
  Node.crash node;
  let holder = ref None in
  ignore
    (Cluster.run_fiber c ~node:0 (fun () ->
         Node.restart node ~reinstall:(reinstall_array holder) ()));
  let arr' = Option.get !holder in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm node) (fun tid ->
            Int_array_server.get arr' tid 15))
  in
  Alcotest.(check int) "state correct after reclamation + crash" 63 v

let test_distributed_deadlock_broken_by_timeout () =
  (* T1 (rooted at node 0) locks a0 then wants a1; T2 (rooted at node 1)
     locks a1 then wants a0. The waits-for cycle spans two nodes, where
     no local detector can see it — exactly why TABS "currently relies
     on time-outs". One of them must time out; afterwards both cells
     must be consistent (all-or-nothing per transaction). *)
  let c = make_cluster ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  ignore (make_array ~name:"a0" n0);
  ignore (make_array ~name:"a1" n1);
  let outcomes = ref [] in
  let run_t home ~first_dest ~second_dest v =
    Cluster.spawn c ~node:home (fun () ->
        let node = Cluster.node c home in
        let tm = Node.tm node and rpc = Node.rpc node in
        let tid = Txn_lib.begin_transaction tm () in
        match
          Int_array_server.call_set rpc ~dest:first_dest
            ~server:(Printf.sprintf "a%d" first_dest) tid 0 v;
          Engine.delay 50_000;
          Int_array_server.call_set rpc ~dest:second_dest
            ~server:(Printf.sprintf "a%d" second_dest) tid 0 v
        with
        | () ->
            let ok = Txn_lib.end_transaction tm tid in
            outcomes := (v, ok) :: !outcomes
        | exception Errors.Lock_timeout _ ->
            Txn_lib.abort_transaction tm tid;
            outcomes := (v, false) :: !outcomes)
  in
  run_t 0 ~first_dest:0 ~second_dest:1 111;
  run_t 1 ~first_dest:1 ~second_dest:0 222;
  Cluster.run_until c ~time:30_000_000;
  Alcotest.(check int) "both transactions concluded" 2 (List.length !outcomes);
  Alcotest.(check bool) "at least one was the deadlock victim" true
    (List.exists (fun (_, ok) -> not ok) !outcomes);
  (* whatever survived, the two cells tell one consistent story *)
  let v0, v1 =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm n0) (fun tid ->
            ( Int_array_server.call_get (Node.rpc n0) ~dest:0 ~server:"a0" tid 0,
              Int_array_server.call_get (Node.rpc n0) ~dest:1 ~server:"a1" tid 0 )))
  in
  ignore n1;
  let committed_vals =
    List.filter_map (fun (v, ok) -> if ok then Some v else None) !outcomes
  in
  let valid = function
    | 0 -> true
    | v -> List.mem v committed_vals
  in
  Alcotest.(check bool) "cells reflect only committed transactions" true
    (valid v0 && valid v1)

(* A participant that crashes and restarts between T's remote call and
   its prepare has lost T: the restarted TM keeps no tree, joined
   server or update chain for it. Presumed abort: it must vote No, and
   T aborts everywhere. With [~checkpoint] node 1's update reached its
   disk before the crash, and restart rolls it back as a loser. *)
let test_participant_restart_before_prepare ~checkpoint () =
  let c = make_cluster ~nodes:2 () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let a0 = make_array ~name:"a0" n0 in
  let _a1 = make_array ~name:"a1" n1 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  let engine = Cluster.engine c in
  let holder = ref None in
  (* run [f] in a fiber on node 1 and wait for it *)
  let on_node1 f =
    let finished = ref false in
    ignore
      (Engine.spawn engine ~node:1 (fun () ->
           f ();
           finished := true));
    while not !finished do
      Engine.delay 1_000
    done
  in
  let committed =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        Int_array_server.set a0 tid 0 7;
        Int_array_server.call_set rpc ~dest:1 ~server:"a1" tid 0 7;
        if checkpoint then on_node1 (fun () -> Node.checkpoint n1);
        Node.crash n1;
        on_node1 (fun () ->
            ignore
              (Node.restart n1 ~reinstall:(reinstall_array ~name:"a1" holder) ()));
        Txn_lib.end_transaction tm tid)
  in
  Alcotest.(check bool) "the restarted participant votes No" false committed;
  let a1 = Option.get !holder in
  let v0 =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid -> Int_array_server.get a0 tid 0))
  in
  let v1 =
    Cluster.run_fiber c ~node:1 (fun () ->
        Txn_lib.execute_transaction (Node.tm n1) (fun tid ->
            Int_array_server.get a1 tid 0))
  in
  Alcotest.(check (pair int int)) "undone on both nodes" (0, 0) (v0, v1)

(* Subtransactions -------------------------------------------------------- *)

let test_subtxn_commit_with_parent () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Txn_lib.with_subtransaction tm tid (fun sub ->
                Int_array_server.set arr sub 0 21);
            (* parent can see and extend the subtransaction's work *)
            Int_array_server.set arr tid 1 22);
        Txn_lib.execute_transaction tm (fun tid ->
            (Int_array_server.get arr tid 0, Int_array_server.get arr tid 1)))
  in
  Alcotest.(check (pair int int)) "subtxn durable with parent" (21, 22) v

let test_subtxn_abort_independent () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Int_array_server.set arr tid 0 1;
            (try
               Txn_lib.with_subtransaction tm tid (fun sub ->
                   Int_array_server.set arr sub 1 99;
                   failwith "subtxn fails")
             with Failure _ -> ());
            Int_array_server.set arr tid 2 3);
        Txn_lib.execute_transaction tm (fun tid ->
            [
              Int_array_server.get arr tid 0;
              Int_array_server.get arr tid 1;
              Int_array_server.get arr tid 2;
            ]))
  in
  Alcotest.(check (list int)) "subtxn rolled back, parent survived"
    [ 1; 0; 3 ] v

let test_parent_abort_kills_subtxn_work () =
  let c = make_cluster () in
  let node = Cluster.node c 0 in
  let arr = make_array node in
  let tm = Node.tm node in
  let v =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        Txn_lib.with_subtransaction tm tid (fun sub ->
            Int_array_server.set arr sub 0 123);
        Txn_lib.abort_transaction tm tid;
        Txn_lib.execute_transaction tm (fun tid2 ->
            Int_array_server.get arr tid2 0))
  in
  Alcotest.(check int) "subtxn work dies with parent" 0 v

let suites =
  [
    ( "integration.local",
      [
        quick "commit persists" test_commit_persists;
        quick "abort undoes" test_abort_undoes;
        quick "abort releases locks" test_abort_releases_locks;
        quick "isolation" test_isolation_between_txns;
        quick "out of range" test_out_of_range;
      ] );
    ( "integration.crash",
      [
        quick "committed survives" test_crash_preserves_committed;
        quick "uncommitted rolled back" test_crash_rolls_back_uncommitted;
        quick "unforced invisible" test_crash_before_force_loses_nothing_committed;
        quick "page-out snapshot precedes a racing write"
          test_page_out_snapshot_precedes_racing_write;
        quick "recovery idempotent" test_recovery_idempotent;
        quick "checkpoint" test_checkpoint_and_recover;
        quick "log reclamation" test_log_reclamation;
        quick "checkpoint between begin and first operation"
          test_checkpoint_after_begin_lists_txn;
      ] );
    ( "integration.distributed",
      [
        quick "two-node commit" test_two_node_commit;
        quick "two-node transfer drains at its last event"
          test_two_node_drains_at_last_event;
        quick "two-node abort" test_two_node_abort_undoes_remotely;
        quick "three-node commit" test_three_node_commit;
        quick "subordinate crash aborts" test_subordinate_crash_aborts;
        quick "in-doubt resolution" test_coordinator_crash_in_doubt_then_resolved;
        quick "prepared participant crash"
          (test_prepared_participant_crash_and_resolution ~writes:true);
        quick "prepared read-only participant crash"
          (test_prepared_participant_crash_and_resolution ~writes:false);
        quick "distributed deadlock" test_distributed_deadlock_broken_by_timeout;
        quick "participant restart before prepare"
          (test_participant_restart_before_prepare ~checkpoint:false);
        quick "participant restart before prepare, update checkpointed"
          (test_participant_restart_before_prepare ~checkpoint:true);
      ] );
    ( "integration.subtxn",
      [
        quick "commit with parent" test_subtxn_commit_with_parent;
        quick "independent abort" test_subtxn_abort_independent;
        quick "parent abort wins" test_parent_abort_kills_subtxn_work;
      ] );
  ]
