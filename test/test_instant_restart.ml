(* Instant restart: serve-while-recovering with on-demand per-page redo.

   The load-bearing properties:

   - with the feature off nothing changes (the seed probes elsewhere pin
     byte-identity); with it on, restart recovery opens the node after
     the analysis scan alone ([open_early = true], [replay_us = 0]);
   - each page's parked redo chain is replayed exactly once — on the
     first touch of the page or by the background trickle — and the node
     then reaches the same state as a serial full-scan recovery;
   - crash at an arbitrary instant: an instant restart whose every page
     is subsequently read agrees with the reference oracle's serial
     full-scan recovery ({!Recovery_oracle}) over a frozen copy of the same stable log and disk on losers, the
     in-doubt set, and every data byte — including with group commit,
     checkpointing, and parallel recovery running at once;
   - the last-writer table pruned at checkpoint time never drops an
     entry that a live dependency chain still needs. *)

open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_accent
open Tabs_recovery
open Tabs_core
open Tabs_servers

let quick name f = Alcotest.test_case name `Quick f

(* --- rig (no Transaction Manager), as in test_parallel_recovery ------ *)

type rig = {
  engine : Engine.t;
  vm : Vm.t;
  log : Log_manager.t;
  rm : Recovery_mgr.t;
}

let pages = 16

let cells_per_page = Page.size / 8

let obj n = Object_id.make ~segment:1 ~offset:(8 * n) ~length:8

let make_rig () =
  let engine = Engine.create () in
  let disk = Disk.create engine in
  Disk.ensure_segment disk 1 ~pages;
  let stable = Stable.create () in
  let vm = Vm.attach engine disk ~frames:(2 * pages) () in
  let log = Log_manager.attach engine stable in
  let rm =
    Recovery_mgr.create engine ~node:0 ~log ~vm
      ~parallel_recovery:Parallel_redo.default ()
  in
  { engine; vm; log; rm }

let run_fiber rig f =
  let out = ref None in
  let _ = Engine.spawn rig.engine (fun () -> out := Some (f ())) in
  let _ = Engine.run rig.engine in
  Option.get !out

let v8 s = Printf.sprintf "%-8s" s

let write_value rig tid n value =
  Vm.pin rig.vm (obj n) ~access:`Random;
  let old_value = Vm.read rig.vm (obj n) ~access:`Random in
  Vm.write rig.vm (obj n) value;
  let lsn =
    Recovery_mgr.log_value rig.rm ~tid ~obj:(obj n) ~old_value
      ~new_value:value
  in
  Vm.unpin rig.vm (obj n);
  lsn

let commit rig tid =
  let lsn = Recovery_mgr.append_tm_record rig.rm (Record.Txn_commit tid) in
  Recovery_mgr.force_through rig.rm lsn

let dependency_records rig =
  run_fiber rig (fun () -> Log_manager.force_all rig.log);
  let deps = ref [] in
  Log_manager.iter_forward rig.log ~from:(Log_manager.first_lsn rig.log)
    ~f:(fun lsn record ->
      match record with
      | Record.Dependency d -> deps := (lsn, d) :: !deps
      | _ -> ());
  List.rev !deps

(* --- last-writer pruning at checkpoint time -------------------------- *)

(* A committed-and-flushed family's entries fall below the prune floor
   and are dropped; an active family's entry pins the floor and
   survives, and a later cross-family write still finds it — the live
   dependency chain is intact. *)
let test_prune_keeps_live_chain_entries () =
  let rig = make_rig () in
  let t1 = Tid.top ~node:0 ~seq:1
  and t2 = Tid.top ~node:0 ~seq:2
  and t3 = Tid.top ~node:0 ~seq:3
  and t4 = Tid.top ~node:0 ~seq:4 in
  let t2_lsn = ref 0 in
  run_fiber rig (fun () ->
      ignore (write_value rig t1 0 (v8 "a"));
      commit rig t1;
      (* t2 stays active: its first update is the prune floor *)
      t2_lsn := write_value rig t2 cells_per_page (v8 "b");
      Alcotest.(check int) "two tracked writers" 2
        (Log_manager.last_writer_size rig.log);
      Vm.flush_all rig.vm;
      ignore (Recovery_mgr.checkpoint rig.rm);
      (* t1's entry was below the floor and is gone; t2's survives *)
      Alcotest.(check int) "pruned down to the live entry" 1
        (Log_manager.last_writer_size rig.log);
      (* a cross-family write of t2's object still sees the last
         writer: the live chain gets its dependency edge *)
      ignore (write_value rig t3 cells_per_page (v8 "c"));
      commit rig t3;
      (* the pruned object has no tracked writer: no edge, which is
         safe exactly because the floor proved t1's update can never
         be in a redo set with t4's *)
      ignore (write_value rig t4 0 (v8 "d"));
      commit rig t4);
  match dependency_records rig with
  | [ (_, d) ] ->
      Alcotest.(check int) "the edge points at the live entry" !t2_lsn
        (snd (List.hd d.Record.preds))
  | deps ->
      Alcotest.failf "expected exactly one dependency, got %d"
        (List.length deps)

(* With nothing active and everything flushed, the table empties. *)
let test_prune_empties_table_when_quiescent () =
  let rig = make_rig () in
  run_fiber rig (fun () ->
      for i = 1 to 4 do
        let tid = Tid.top ~node:0 ~seq:i in
        ignore (write_value rig tid (i mod 3) (v8 (string_of_int i)));
        commit rig tid
      done;
      Alcotest.(check int) "three objects tracked" 3
        (Log_manager.last_writer_size rig.log);
      Vm.flush_all rig.vm;
      ignore (Recovery_mgr.checkpoint rig.rm);
      Alcotest.(check int) "all entries pruned" 0
        (Log_manager.last_writer_size rig.log))

(* --- crash at a random instant over a full node ---------------------- *)

let next_rand s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* Replaying account "adjust" records on a bare reference Recovery
   Manager needs only this handler (mirrors Account_server's). *)
let accounts_handler vm ~segment =
  let slot_obj i = Object_id.make ~segment ~offset:(8 * i) ~length:8 in
  let encode_slot v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    Bytes.to_string b
  in
  let apply ~op ~arg =
    if op <> "adjust" then failwith ("unexpected account op " ^ op);
    let r = Codec.Reader.of_string arg in
    let entries =
      Codec.Reader.list r (fun r ->
          let i = Codec.Reader.int r in
          let v = Codec.Reader.int r in
          (i, v))
    in
    List.iter
      (fun (i, v) ->
        Vm.pin vm (slot_obj i) ~access:`Random;
        Vm.write vm (slot_obj i) (encode_slot v);
        Vm.unpin vm (slot_obj i))
      entries
  in
  { Recovery_mgr.redo = apply; undo = apply }

let check_pages_equal ~what disk_a disk_b ~segments =
  List.iter
    (fun segment ->
      let seg_pages = Disk.segment_pages disk_a segment in
      for p = 0 to seg_pages - 1 do
        let pid = { Disk.segment; page = p } in
        if
          not
            (Page.equal
               (Disk.read_nocharge disk_a pid)
               (Disk.read_nocharge disk_b pid))
        then Alcotest.failf "segment %d page %d differs: %s" segment p what
      done)
    segments

(* Random concurrent workload on one node with instant restart (and,
   when [full_stack], group commit and the checkpoint daemon too) —
   crash at a random instant, restart instantly, then read every page
   (racing the trickle, so chains drain through both the fault path
   and the background fiber). The node must end state-identical to the
   oracle's full-scan recovery over a frozen copy of the same stable log
   and disk, and agree on losers and the in-doubt set. *)
let instant_crash_equivalence ~profile ~full_stack ?(window = 2_000_000) ~seed
    () =
  let cells = 128 and accounts = 64 in
  let c =
    Cluster.create ~nodes:1 ~profile
      ~parallel_recovery:{ Parallel_redo.fibers = 4 }
      ~instant_restart:true
      ?group_commit:(if full_stack then Some Group_commit.default else None)
      ?checkpointing:
        (if full_stack then
           Some { Checkpointer.interval = 20_000; trickle = 4 }
         else None)
      ()
  in
  let node = Cluster.node c 0 in
  let arr =
    Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells ()
  in
  let acc =
    Account_server.create (Node.env node) ~name:"b" ~segment:2 ~accounts ()
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
                   if rand 2 = 0 then
                     Int_array_server.set arr tid (rand cells) (rand 1000)
                   else
                     Account_server.deposit acc tid (rand accounts)
                       (1 + rand 9)
                 done)
           with
          | Errors.Transaction_is_aborted _ | Errors.Deadlock _
          | Errors.Lock_timeout _ ->
              ());
          Engine.delay (1 + rand 2_000)
        done)
  done;
  let crash_at = 60_000 + (next_rand seed mod window) in
  Cluster.run_until c ~time:crash_at;
  Node.crash node;
  (* reference: the oracle's full-scan recovery of the stable log and
     disk frozen at the crash *)
  let ref_outcome, disk_copy =
    Recovery_oracle.run ~disk:(Node.disk node)
      ~stable:(Log_manager.stable (Node.log node))
      ~handlers:(fun vm -> [ ("b", accounts_handler vm ~segment:2) ])
      ()
  in
  (* live node: instant restart, then read every page while the trickle
     is still draining — first touches replay parked chains on demand *)
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        let o =
          Node.restart node
            ~reinstall:(fun env ->
              ignore
                (Int_array_server.create env ~name:"a" ~segment:1 ~cells ());
              ignore
                (Account_server.create env ~name:"b" ~segment:2 ~accounts ()))
            ()
        in
        Cluster.spawn c ~node:0 (fun () ->
            let vm = Node.vm node in
            let touch o =
              Vm.pin vm o ~access:`Random;
              ignore (Vm.read vm o ~access:`Random);
              Vm.unpin vm o
            in
            for i = 0 to cells - 1 do
              touch (Object_id.make ~segment:1 ~offset:(8 * i) ~length:8)
            done;
            for i = 0 to accounts - 1 do
              touch (Object_id.make ~segment:2 ~offset:(8 * i) ~length:8)
            done);
        o)
  in
  Alcotest.(check bool) "live restart opened early" true outcome.open_early;
  Alcotest.(check int) "no upfront replay" 0 outcome.replay_us;
  let tids = List.map Tid.to_string in
  Alcotest.(check (list string))
    "instant restart and the oracle agree on losers" (tids ref_outcome.losers)
    (tids outcome.losers);
  Alcotest.(check (list string))
    "and on the in-doubt set"
    (List.map (fun (t, _) -> Tid.to_string t) ref_outcome.in_doubt)
    (List.map (fun (t, _) -> Tid.to_string t) outcome.in_doubt);
  let m = Metrics.recovery (Engine.metrics (Cluster.engine c)) ~node:0 in
  Alcotest.(check int) "every parked chain drained" 0 m.Metrics.pending_pages;
  check_pages_equal ~what:"instant restart vs the oracle"
    (Node.disk node) disk_copy ~segments:[ 1; 2 ];
  true

let prop_instant_equivalence profile name =
  QCheck.Test.make ~name ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      instant_crash_equivalence ~profile ~full_stack:false ~seed ())

(* the 300-seed stress: group commit + checkpointing + parallel
   recovery + instant restart all on at once *)
let test_instant_stress () =
  for seed = 1 to 300 do
    ignore
      (instant_crash_equivalence ~profile:Profile.Classic ~full_stack:true
         ~window:1_500_000 ~seed:(seed * 3571) ())
  done

let suites =
  [
    ( "instant_restart",
      [
        quick "checkpoint pruning keeps live-chain entries"
          test_prune_keeps_live_chain_entries;
        quick "checkpoint pruning empties a quiescent table"
          test_prune_empties_table_when_quiescent;
        QCheck_alcotest.to_alcotest
          (prop_instant_equivalence Profile.Classic
             "crash at a random instant: instant = serial (Classic)");
        QCheck_alcotest.to_alcotest
          (prop_instant_equivalence Profile.Integrated
             "crash at a random instant: instant = serial (Integrated)");
        Alcotest.test_case "300-seed stress: full stack on" `Slow
          test_instant_stress;
      ] );
  ]
