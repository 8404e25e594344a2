(* Group commit (force batching) tests.

   Three angles: (1) with the batcher on, concurrent committers share
   stable-storage rounds — forces < commits, one Group_commit trace
   event covers the batch; (2) a qcheck durability property crashes the
   node at a random instant mid-batch and demands that every
   acknowledged commit survives recovery while no unacknowledged
   transaction's effects do, under both architecture profiles; (3) with
   the batcher off (the default) the per-commit force discipline and the
   Table 5-x cost metrics are bit-identical to the seed measurements,
   pinned here as regression values. *)

open Tabs_sim
open Tabs_core
open Tabs_servers
open Tabs_wal
open Tabs_recovery
open Tabs_obs

let quick name f = Alcotest.test_case name `Quick f

(* 1. Batching engagement ---------------------------------------------- *)

let test_concurrent_commits_share_forces () =
  let c = Cluster.create ~nodes:1 ~group_commit:Group_commit.default () in
  let n0 = Cluster.node c 0 in
  let arr =
    Int_array_server.create (Node.env n0) ~name:"a0" ~segment:1 ~cells:64 ()
  in
  let recorder = Recorder.attach (Cluster.engine c) in
  let tm = Node.tm n0 in
  let committed = ref 0 in
  let n = 8 in
  for w = 0 to n - 1 do
    Cluster.spawn c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Int_array_server.set arr tid w (w + 1));
        incr committed)
  done;
  Cluster.run c;
  Alcotest.(check int) "all committed" n !committed;
  let forces = Log_manager.force_count (Node.log n0) in
  Alcotest.(check bool) "at least one force" true (forces >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "forces (%d) < commits (%d)" forces n)
    true (forces < n);
  (match Recovery_mgr.group_commit (Node.rm n0) with
  | None -> Alcotest.fail "batcher not installed"
  | Some g ->
      Alcotest.(check int) "every commit went through the batcher" n
        (Group_commit.coalesced g);
      Alcotest.(check int) "batch count matches forces" forces
        (Group_commit.batches g));
  let batched =
    List.exists
      (fun { Recorder.event; _ } ->
        match event with
        | Group_commit.Group_commit e -> e.batch >= 2 && e.woken = e.batch
        | _ -> false)
      (Recorder.entries recorder)
  in
  Recorder.detach recorder;
  Alcotest.(check bool) "a Group_commit event covers several commits" true
    batched;
  (* the committed values really are there *)
  let vals =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            List.init n (fun w -> Int_array_server.get arr tid w)))
  in
  Alcotest.(check (list int)) "values" (List.init n (fun w -> w + 1)) vals

(* With group commit and the checkpoint daemon on, the batcher is the
   only writer to the log device: daemon checkpoints ride the next
   commit force, and page-out and periodic-checkpoint forces join the
   open batch. Every log force is then some batch's force. *)
let test_batcher_is_the_only_log_writer () =
  let c =
    Cluster.create ~nodes:1 ~group_commit:Group_commit.default
      ~checkpointing:20_000 ~frames:16 ()
  in
  let n0 = Cluster.node c 0 in
  let cells = 24 * Crash_harness.cells_per_page in
  let arr =
    Int_array_server.create (Node.env n0) ~name:"a0" ~segment:1 ~cells ()
  in
  let recorder = Recorder.attach (Cluster.engine c) in
  for w = 0 to 7 do
    Cluster.spawn c ~node:0 (fun () ->
        for i = 1 to 30 do
          Txn_lib.execute_transaction (Node.tm n0) (fun tid ->
              Int_array_server.set arr tid ((w * 997 * i) mod cells) i);
          Engine.delay 2_000
        done)
  done;
  (* run to quiescence, so no force is still in flight *)
  Cluster.run c;
  let count p =
    List.length
      (List.filter (fun { Recorder.event; _ } -> p event)
         (Recorder.entries recorder))
  in
  let forces =
    count (function Log_manager.Log_force _ -> true | _ -> false)
  in
  let batches =
    count (function Group_commit.Group_commit _ -> true | _ -> false)
  in
  let commits =
    count (function Tabs_tm.Txn_mgr.Txn_commit _ -> true | _ -> false)
  in
  let page_outs =
    count (function Tabs_accent.Vm.Page_out _ -> true | _ -> false)
  in
  Recorder.detach recorder;
  let cp = Option.get (Recovery_mgr.checkpointer (Node.rm n0)) in
  (* the run exercises every other source of log writes: the TM asks
     for a checkpoint every 50 commits *)
  Alcotest.(check bool) "several periodic checkpoints" true (commits > 100);
  Alcotest.(check bool) "daemon cycled and reclaimed" true
    (Checkpointer.cycles cp > 0 && Checkpointer.reclaimed cp > 0);
  Alcotest.(check bool) "pages went out" true (page_outs > 0);
  Alcotest.(check int) "every log force is a group-commit batch" batches
    forces

(* One committer opens a batch at virtual time 0 and [late] more join
   it at 1 ms, each forcing its own commit record through the batcher.
   Returns when the batch's force left for the log device (the
   [Log_force] event less the charge of its one large message) and how
   many committers were acknowledged by one batch. *)
let first_force_departure ~late =
  let engine = Engine.create () in
  let log = Log_manager.attach engine (Tabs_storage.Stable.create ()) in
  let gc = Group_commit.create engine ~node:0 ~log in
  let forced_at = ref [] in
  Engine.set_tracer engine
    (Some
       (fun ~time ev ->
         match ev with
         | Log_manager.Log_force _ -> forced_at := time :: !forced_at
         | _ -> ()));
  let acked = ref 0 in
  let commit ~delay seq =
    ignore
      (Engine.spawn engine ~node:0 (fun () ->
           Engine.delay delay;
           let lsn =
             Log_manager.append log (Record.Txn_commit (Tid.top ~node:0 ~seq))
           in
           Group_commit.force_through gc ~upto:lsn;
           incr acked))
  in
  commit ~delay:0 0;
  for seq = 1 to late do
    commit ~delay:1_000 seq
  done;
  ignore (Engine.run engine);
  let message =
    Cost_model.cost (Engine.cost_model engine) Cost_model.Large_contiguous_message
  in
  Alcotest.(check int) "every committer acknowledged" (late + 1) !acked;
  Alcotest.(check int) "one batch" 1 (Group_commit.batches gc);
  match !forced_at with
  | [ t ] -> t - message
  | l -> Alcotest.failf "%d forces, expected one" (List.length l)

let test_batch_cap_closes_early () =
  (* 70 committers: the 64th closes the batch at 1 ms, so its force
     leaves before the window ends *)
  Alcotest.(check int) "force departs when the cap is reached" 1_000
    (first_force_departure ~late:69);
  (* 8 committers: the batch stays open for the whole window *)
  Alcotest.(check int) "force departs when the window ends"
    Group_commit.window
    (first_force_departure ~late:7)

(* 2. Crash-mid-batch durability (qcheck) ------------------------------ *)

let workers = 6

type worker_log = {
  mutable started : (int * Tid.t) list; (* value -> writing transaction *)
  mutable acked : int; (* last value whose commit was acknowledged *)
}

(* Each worker writes 1, 2, 3, ... into its own cell, recording the tid
   before the write and the ack only after [execute_transaction]
   returns. After a crash at [crash_at] and recovery, cell w must hold a
   value v with acked <= v <= last-started, and if v was never
   acknowledged its transaction must have a commit record on the log —
   the legitimate committed-but-unacknowledged window. Anything else is
   a durability (or atomicity) violation. *)
let crash_mid_batch profile crash_at =
  let c =
    Cluster.create ~nodes:1 ~profile ~group_commit:Group_commit.default ()
  in
  let n0 = Cluster.node c 0 in
  let holder = ref None in
  let reinstall env =
    holder :=
      Some (Int_array_server.create env ~name:"a0" ~segment:1 ~cells:64 ())
  in
  reinstall (Node.env n0);
  let logs = Array.init workers (fun _ -> { started = []; acked = 0 }) in
  let tm = Node.tm n0 in
  let engine = Cluster.engine c in
  for w = 0 to workers - 1 do
    Cluster.spawn c ~node:0 (fun () ->
        let wl = logs.(w) in
        let arr = Option.get !holder in
        let v = ref 0 in
        while Engine.now engine < crash_at do
          incr v;
          let value = !v in
          match
            Txn_lib.execute_transaction tm (fun tid ->
                wl.started <- (value, tid) :: wl.started;
                Int_array_server.set arr tid w value)
          with
          | () -> wl.acked <- value
          | exception Errors.Transaction_is_aborted _
          | exception Errors.Lock_timeout _ ->
              ()
        done)
  done;
  Cluster.run_until c ~time:crash_at;
  Node.crash n0;
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () -> Node.restart n0 ~reinstall ())
  in
  let tm = Node.tm n0 in
  let arr = Option.get !holder in
  let vals =
    Cluster.run_fiber c ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            List.init workers (fun w -> Int_array_server.get arr tid w)))
  in
  let statuses = outcome.Recovery_mgr.statuses in
  List.iteri
    (fun w v ->
      let wl = logs.(w) in
      let last_started =
        List.fold_left (fun acc (value, _) -> max acc value) 0 wl.started
      in
      if v < wl.acked then
        QCheck.Test.fail_reportf
          "worker %d: acknowledged value %d lost, cell holds %d" w wl.acked v;
      if v > last_started then
        QCheck.Test.fail_reportf
          "worker %d: cell holds %d, never written (last started %d)" w v
          last_started;
      if v > wl.acked then
        (* unacknowledged value survived: only legitimate if its
           transaction's commit record reached stable storage *)
        match List.assoc_opt v wl.started with
        | None ->
            QCheck.Test.fail_reportf "worker %d: surviving value %d untracked"
              w v
        | Some tid -> (
            match
              List.find_opt (fun (t, _) -> Tid.equal t tid) statuses
            with
            | Some (_, Recovery_mgr.Committed) -> ()
            | None ->
                (* record truncated by a later checkpoint: only committed
                   transactions are ever dropped from the analyzed range *)
                ()
            | Some _ ->
                QCheck.Test.fail_reportf
                  "worker %d: value %d survived but its transaction did not \
                   commit"
                  w v))
    vals;
  true

let prop_crash_mid_batch_durability =
  QCheck.Test.make
    ~name:
      "group commit: acknowledged commits survive a crash mid-batch, \
       unacknowledged effects do not (Classic and Integrated)"
    ~count:8
    QCheck.(pair bool (int_range 200_000 2_000_000))
    (fun (integrated, crash_at) ->
      let profile = if integrated then Profile.Integrated else Profile.Classic in
      crash_mid_batch profile crash_at)

(* 3. Off-by-default: seed metrics are unchanged ----------------------- *)

let test_default_has_no_batcher () =
  let c = Cluster.create ~nodes:1 () in
  let n0 = Cluster.node c 0 in
  (match Recovery_mgr.group_commit (Node.rm n0) with
  | None -> ()
  | Some _ -> Alcotest.fail "batcher installed without being asked for");
  (* per-commit force discipline: two sequential write transactions pay
     two forces *)
  let arr =
    Int_array_server.create (Node.env n0) ~name:"a0" ~segment:1 ~cells:64 ()
  in
  let tm = Node.tm n0 in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set arr tid 0 1);
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set arr tid 1 2));
  Alcotest.(check int) "one force per commit" 2
    (Log_manager.force_count (Node.log n0))

(* Seed-pinned regression values, captured on the pre-group-commit tree:
   a default (Classic, group commit off) single-node cluster running one
   read-only and one read-modify-write transaction must charge exactly
   the same primitives, pay the same single force, and finish at the
   same virtual instant as the seed did. Guards both the batcher's
   off-path and the WAL buffer rework. *)
let test_seed_probe_metrics_identical () =
  let c = Cluster.create ~nodes:1 () in
  let n0 = Cluster.node c 0 in
  let arr =
    Int_array_server.create (Node.env n0) ~name:"a0" ~segment:1 ~cells:64 ()
  in
  let tm = Node.tm n0 in
  let engine = Cluster.engine c in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          ignore (Int_array_server.get arr tid 0));
      Txn_lib.execute_transaction tm (fun tid ->
          let v = Int_array_server.get arr tid 0 in
          Int_array_server.set arr tid 0 (v + 1)));
  let m = Engine.metrics engine in
  let count p = Metrics.count m p in
  Alcotest.(check int) "small messages" 20 (count Cost_model.Small_contiguous_message);
  Alcotest.(check int) "large messages" 2 (count Cost_model.Large_contiguous_message);
  Alcotest.(check int) "random paged IO" 1 (count Cost_model.Random_paged_io);
  Alcotest.(check int) "stable writes" 1 (count Cost_model.Stable_storage_write);
  Alcotest.(check int) "datagrams" 0 (count Cost_model.Datagram);
  Alcotest.(check int) "sequential reads" 0 (count Cost_model.Sequential_read);
  Alcotest.(check int) "forces" 1 (Log_manager.force_count (Node.log n0));
  Alcotest.(check int) "virtual finish time" 313_800 (Engine.now engine)

(* Table 5-x workload vectors (bench/workloads.ml) pinned against the
   seed: per-primitive pre-commit and commit-phase weights and elapsed
   virtual time for the local read and local write rows. *)
let find_spec name =
  List.find
    (fun (s : Tabs_bench.Workloads.spec) -> s.spec_name = name)
    Tabs_bench.Workloads.specs

let check_spec name ~elapsed ~pre ~commit =
  let r =
    Tabs_bench.Workloads.run_spec ~iterations:2 ~warmup:1
      ~model:Cost_model.measured (find_spec name)
  in
  Alcotest.(check (float 0.001)) (name ^ ": elapsed") elapsed r.elapsed_us;
  Alcotest.(check (array (float 0.001))) (name ^ ": pre-commit weights") pre r.pre;
  Alcotest.(check (array (float 0.001)))
    (name ^ ": commit-phase weights")
    commit r.commit

let test_seed_workload_vectors_identical () =
  (* trailing 0s: the Coalesced_frame extension primitive must stay
     uncharged on the default (batching-off) path *)
  check_spec "1 Local Read, No Paging" ~elapsed:98_100.
    ~pre:[| 1.; 0.; 0.; 4.; 0.; 0.; 0.; 0.; 0.; 0. |]
    ~commit:[| 0.; 0.; 0.; 5.; 0.; 0.; 0.; 0.; 0.; 0. |];
  check_spec "1 Local Write, No Paging" ~elapsed:235_900.
    ~pre:[| 1.; 0.; 0.; 6.; 1.; 0.; 0.5; 0.; 0.; 0. |]
    ~commit:[| 0.; 0.; 0.; 6.; 1.; 0.; 0.; 0.; 1.; 0. |]

let suites =
  [
    ( "group_commit",
      [
        quick "concurrent commits share forces"
          test_concurrent_commits_share_forces;
        quick "batch cap closes a batch early" test_batch_cap_closes_early;
        quick "the batcher is the only log writer"
          test_batcher_is_the_only_log_writer;
        QCheck_alcotest.to_alcotest prop_crash_mid_batch_durability;
        quick "off by default" test_default_has_no_batcher;
        quick "seed probe metrics identical" test_seed_probe_metrics_identical;
        quick "seed workload vectors identical"
          test_seed_workload_vectors_identical;
      ] );
  ]
