(* The crash harness shared by the recovery tests.

   - A bare rig: one node's disk, stable log, Vm and Recovery Manager
     over segment 1, with no Transaction Manager, for driving the
     Recovery Manager's algorithms directly.
   - Random writer fibers with deterministic per-writer streams.
   - [crash_matches_oracle]: run writers on a one-node cluster, crash it
     at a chosen instant, and check its restart against
     {!Recovery_oracle}'s full-scan recovery of the frozen disk and log.
   - The write-all lossy family: three nodes, five transactions that
     each write every node, over a lossy network.
   - The cluster convergence checks: one outcome per transaction, nothing
     in doubt, no locks held. *)

open Tabs_sim
open Tabs_storage
open Tabs_net
open Tabs_wal
open Tabs_accent
open Tabs_recovery
open Tabs_core
open Tabs_servers
open Tabs_obs

(* --- the bare rig ---------------------------------------------------- *)

type rig = {
  engine : Engine.t;
  disk : Disk.t;
  stable : Stable.t;
  mutable vm : Vm.t;
  mutable log : Log_manager.t;
  mutable rm : Recovery_mgr.t;
}

let cells_per_page = Page.size / 8

let obj n = Object_id.make ~segment:1 ~offset:(8 * n) ~length:8

let v8 s = Printf.sprintf "%-8s" s

(* [pages] of segment 1 over a pool of twice as many frames *)
let make_rig ~pages ?checkpointing ?log_space_limit () =
  let engine = Engine.create () in
  let disk = Disk.create engine in
  Disk.ensure_segment disk 1 ~pages;
  let stable = Stable.create () in
  let vm = Vm.attach engine disk ~frames:(2 * pages) () in
  let log = Log_manager.attach engine stable in
  let rm =
    Recovery_mgr.create engine ~node:0 ~log ~vm ?checkpointing
      ?log_space_limit ()
  in
  { engine; disk; stable; vm; log; rm }

(* simulate a crash: rebuild all volatile structures *)
let crash_and_recover rig =
  let frames = 2 * Disk.segment_pages rig.disk 1 in
  let vm = Vm.attach rig.engine rig.disk ~frames () in
  let log = Log_manager.attach rig.engine rig.stable in
  let rm = Recovery_mgr.create rig.engine ~node:0 ~log ~vm () in
  rig.vm <- vm;
  rig.log <- log;
  rig.rm <- rm;
  Recovery_mgr.recover rm

let run_fiber rig f =
  let out = ref None in
  let _ = Engine.spawn rig.engine (fun () -> out := Some (f ())) in
  let _ = Engine.run rig.engine in
  Option.get !out

(* a value-logged write of cell [n] *)
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

(* The account server's "adjust" records carry absolute balances;
   replaying one on a bare Recovery Manager needs only this handler
   (mirrors the redo/undo Account_server registers). *)
let accounts_handler vm ~segment =
  let slot_obj i = Object_id.make ~segment ~offset:(8 * i) ~length:8 in
  let apply ~op ~arg =
    if op <> "adjust" then failwith ("unexpected account op " ^ op);
    List.iter
      (fun (i, v) ->
        Vm.pin vm (slot_obj i) ~access:`Random;
        Vm.write vm (slot_obj i) (Codec.encode Codec.slot v);
        Vm.unpin vm (slot_obj i))
      (Codec.(decode (list (pair int int))) arg)
  in
  { Recovery_mgr.redo = apply; undo = apply }

(* --- random writers -------------------------------------------------- *)

let next_rand s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* [writers] fibers on node 0, each looping forever: a transaction of
   1–4 [update rand tid] calls, then a pause of [1 + rand think]. Writer
   [w] draws from its own stream seeded [seed + w * 7919 + 1]. OCaml
   evaluates arguments right to left, so the order of draws inside an
   [update] depends on the shape of its expression. *)
let spawn_writers c ~tm ~seed ~writers ~think update =
  for w = 0 to writers - 1 do
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
                   update rand tid
                 done)
           with
          | Errors.Transaction_is_aborted _ | Errors.Lock_timeout _ ->
              ());
          Engine.delay (1 + rand think)
        done)
  done

(* --- crash at an instant, restart, compare with the oracle ----------- *)

(* Run three random writers on node 0 of the one-node cluster [c] over
   an int-array server "a" of [cells] cells on segment 1 and, when
   [accounts > 0], an operation-logged account server "b" on segment 2.
   Crash at [crash_from + next_rand seed mod window]. The oracle
   recovers a frozen copy of the stable log and disk with a full scan;
   the node restarts as configured, running [after_restart] inside the
   restart fiber. Both must agree on the losers, the in-doubt set and
   every data byte. Returns the live restart's outcome. *)
let crash_matches_oracle c ~what ~seed ~cells ~accounts ~think ~crash_from
    ~window ?(after_restart = ignore) () =
  let node = Cluster.node c 0 in
  let arr =
    Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells ()
  in
  let update =
    if accounts > 0 then begin
      let acc =
        Account_server.create (Node.env node) ~name:"b" ~segment:2 ~accounts
          ()
      in
      fun rand tid ->
        if rand 2 = 0 then Int_array_server.set arr tid (rand cells) (rand 1000)
        else Account_server.deposit acc tid (rand accounts) (1 + rand 9)
    end
    else fun rand tid -> Int_array_server.set arr tid (rand cells) (rand 1000)
  in
  spawn_writers c ~tm:(Node.tm node) ~seed ~writers:3 ~think update;
  Cluster.run_until c ~time:(crash_from + (next_rand seed mod window));
  Node.crash node;
  (* reference: the oracle's full-scan recovery of the stable log and
     disk frozen at the crash *)
  let ref_outcome, disk_copy =
    Recovery_oracle.run ~disk:(Node.disk node)
      ~stable:(Log_manager.stable (Node.log node))
      ~handlers:(fun vm ->
        if accounts > 0 then [ ("b", accounts_handler vm ~segment:2) ] else [])
      ()
  in
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        let o =
          Node.restart node
            ~reinstall:(fun env ->
              ignore
                (Int_array_server.create env ~name:"a" ~segment:1 ~cells ());
              if accounts > 0 then
                ignore
                  (Account_server.create env ~name:"b" ~segment:2 ~accounts ()))
            ()
        in
        after_restart ();
        o)
  in
  let tids = List.map Tid.to_string in
  Alcotest.(check (list string))
    (what ^ " and the oracle agree on losers")
    (tids ref_outcome.losers) (tids outcome.losers);
  Alcotest.(check (list string))
    "and on the in-doubt set"
    (tids (List.map fst ref_outcome.in_doubt))
    (tids (List.map fst outcome.in_doubt));
  check_pages_equal ~what:(what ^ " vs the oracle") (Node.disk node) disk_copy
    ~segments:(if accounts > 0 then [ 1; 2 ] else [ 1 ]);
  outcome

(* --- write-all transactions -------------------------------------- *)

let array_name id = Printf.sprintf "a%d" id

(* A fiber on [node] runs [txns] transactions; transaction [i] sets cell
   [i] to [base + i] in every node's array "a<id>". A transaction that
   fails with one of the four usual exceptions is dropped. *)
let spawn_write_all c ~node ~txns ~base =
  let n = Cluster.node c node in
  let dests = List.length (Cluster.nodes c) in
  Cluster.spawn c ~node (fun () ->
      for i = 0 to txns - 1 do
        try
          Txn_lib.execute_transaction (Node.tm n) (fun tid ->
              for dest = 0 to dests - 1 do
                Int_array_server.call_set (Node.rpc n) ~dest
                  ~server:(array_name dest) tid i (base + i)
              done)
        with
        | Errors.Lock_timeout _ | Errors.Transaction_is_aborted _
        | Rpc.Rpc_timeout _ ->
            ()
      done)

let lossy_nodes = 3

let lossy_txns = 5

(* The write-all lossy family: three nodes with a 16-cell array "a<id>"
   each, a recorder attached and then [loss] set, and node 0 setting
   cell [i] to [100 + i] in five transactions. Time is not advanced:
   the caller drives the cluster. *)
let write_all_lossy ?profile ?comm_batching ?commit_protocol ~loss ~seed () =
  let c =
    Cluster.create ~nodes:lossy_nodes ~seed ?profile ?comm_batching
      ?commit_protocol ()
  in
  let arrays =
    List.map
      (fun node ->
        Int_array_server.create (Node.env node)
          ~name:(array_name (Node.id node))
          ~segment:1 ~cells:16 ())
      (Cluster.nodes c)
  in
  let recorder = Recorder.attach (Cluster.engine c) in
  Network.set_loss (Cluster.network c) loss;
  spawn_write_all c ~node:0 ~txns:lossy_txns ~base:100;
  (c, arrays, recorder)

(* --- cluster convergence checks -------------------------------------- *)

(* no transaction has a commit on one node and an abort on another *)
let outcomes_agree entries =
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun ({ event; _ } : Recorder.entry) ->
      let note tid committed =
        let key = Tid.to_string tid in
        match Hashtbl.find_opt seen key with
        | Some c -> c = committed
        | None ->
            Hashtbl.replace seen key committed;
            true
      in
      match event with
      | Tabs_tm.Txn_mgr.Txn_commit { tid; _ } -> note tid true
      | Tabs_tm.Txn_mgr.Txn_abort { tid; _ } -> note tid false
      | _ -> true)
    entries

let nothing_in_doubt nodes =
  List.for_all (fun node -> Tabs_tm.Txn_mgr.in_doubt (Node.tm node) = []) nodes

let no_locks_held arrays =
  List.for_all
    (fun arr ->
      Tabs_lock.Lock_manager.total_holds
        (Server_lib.lock_manager (Int_array_server.server arr))
      = 0)
    arrays
