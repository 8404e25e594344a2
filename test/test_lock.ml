(* Tests for lock modes and the lock manager: compatibility, waiting,
   timeouts (deadlock resolution), conditional locks, and subtransaction
   lock transfer. *)

open Tabs_sim
open Tabs_wal
open Tabs_lock

let quick name f = Alcotest.test_case name `Quick f

let obj n = Object_id.make ~segment:1 ~offset:(8 * n) ~length:8

let tid n = Tid.top ~node:1 ~seq:n

let run_fibers fns =
  let e = Engine.create () in
  let lm = Lock_manager.create e () in
  List.iter (fun f -> ignore (Engine.spawn e (fun () -> f e lm))) fns;
  let _ = Engine.run e in
  (e, lm)

let test_mode_standard () =
  Alcotest.(check bool) "r/r" true (Mode.standard Mode.Read Mode.Read);
  Alcotest.(check bool) "r/w" false (Mode.standard Mode.Read Mode.Write);
  Alcotest.(check bool) "w/w" false (Mode.standard Mode.Write Mode.Write)

let test_mode_typed () =
  let compat = Mode.with_typed [ ("enq", "deq") ] in
  Alcotest.(check bool) "enq/deq" true
    (compat (Mode.Typed "enq") (Mode.Typed "deq"));
  Alcotest.(check bool) "deq/enq symmetric" true
    (compat (Mode.Typed "deq") (Mode.Typed "enq"));
  Alcotest.(check bool) "enq/enq" false
    (compat (Mode.Typed "enq") (Mode.Typed "enq"));
  Alcotest.(check bool) "typed vs write" false
    (compat (Mode.Typed "enq") Mode.Write)

let prop_mode_symmetric =
  let gen =
    QCheck.Gen.(
      oneofl [ Mode.Read; Mode.Write; Mode.Typed "a"; Mode.Typed "b" ])
  in
  QCheck.Test.make ~name:"compatibility relations are symmetric" ~count:200
    (QCheck.make QCheck.Gen.(pair gen gen))
    (fun (a, b) ->
      let c1 = Mode.with_typed [ ("a", "b"); ("a", "a") ] in
      c1 a b = c1 b a && Mode.standard a b = Mode.standard b a)

let test_shared_readers () =
  let granted = ref 0 in
  let _ =
    run_fibers
      (List.init 3 (fun i _ lm ->
           match Lock_manager.lock lm (tid i) (obj 0) Mode.Read () with
           | Lock_manager.Granted -> incr granted
           | Lock_manager.Timed_out -> ()))
  in
  Alcotest.(check int) "three concurrent readers" 3 !granted

let test_writer_excludes () =
  let order = ref [] in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm (tid 1) (obj 0) Mode.Write ());
          order := "t1-granted" :: !order;
          Engine.delay 100;
          Lock_manager.release_all lm (tid 1);
          order := "t1-released" :: !order);
        (fun _ lm ->
          Engine.delay 10;
          ignore (Lock_manager.lock lm (tid 2) (obj 0) Mode.Write ());
          order := "t2-granted" :: !order);
      ]
  in
  Alcotest.(check (list string))
    "writer waits for release"
    [ "t1-granted"; "t1-released"; "t2-granted" ]
    (List.rev !order)

let test_lock_timeout () =
  let outcome = ref Lock_manager.Granted in
  let e, lm =
    run_fibers
      [
        (fun _ lm -> ignore (Lock_manager.lock lm (tid 1) (obj 0) Mode.Write ()));
        (fun _ lm ->
          Engine.delay 10;
          outcome :=
            Lock_manager.lock lm (tid 2) (obj 0) Mode.Write ~timeout:1000 ());
      ]
  in
  Alcotest.(check bool) "timed out" true (!outcome = Lock_manager.Timed_out);
  Alcotest.(check int) "counted" 1 (Lock_manager.timeouts lm);
  ignore e

let test_deadlock_broken_by_timeout () =
  (* T1 holds A wants B; T2 holds B wants A. Both time out rather than
     hang — the paper's deadlock resolution. *)
  let timeouts = ref 0 in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm (tid 1) (obj 0) Mode.Write ());
          Engine.delay 10;
          (match Lock_manager.lock lm (tid 1) (obj 1) Mode.Write ~timeout:500 () with
          | Lock_manager.Timed_out -> incr timeouts
          | Lock_manager.Granted -> ());
          Lock_manager.release_all lm (tid 1));
        (fun _ lm ->
          ignore (Lock_manager.lock lm (tid 2) (obj 1) Mode.Write ());
          Engine.delay 10;
          (match Lock_manager.lock lm (tid 2) (obj 0) Mode.Write ~timeout:500 () with
          | Lock_manager.Timed_out -> incr timeouts
          | Lock_manager.Granted -> ());
          Lock_manager.release_all lm (tid 2));
      ]
  in
  Alcotest.(check bool) "at least one victim" true (!timeouts >= 1)

let test_conditional_lock () =
  let results = ref [] in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          results := ("t1", Lock_manager.try_lock lm (tid 1) (obj 0) Mode.Write) :: !results;
          Engine.delay 10);
        (fun _ lm ->
          Engine.delay 5;
          results := ("t2", Lock_manager.try_lock lm (tid 2) (obj 0) Mode.Write) :: !results);
      ]
  in
  Alcotest.(check (list (pair string bool)))
    "conditional does not wait"
    [ ("t1", true); ("t2", false) ]
    (List.rev !results)

let test_is_locked () =
  let observed = ref [] in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          observed := ("before", Lock_manager.is_locked lm (obj 0)) :: !observed;
          ignore (Lock_manager.lock lm (tid 1) (obj 0) Mode.Read ());
          observed := ("held", Lock_manager.is_locked lm (obj 0)) :: !observed;
          Lock_manager.release_all lm (tid 1);
          observed := ("after", Lock_manager.is_locked lm (obj 0)) :: !observed);
      ]
  in
  Alcotest.(check (list (pair string bool)))
    "IsObjectLocked lifecycle"
    [ ("before", false); ("held", true); ("after", false) ]
    (List.rev !observed)

let test_reentrant_and_upgrade () =
  let _ =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm (tid 1) (obj 0) Mode.Read ());
          (* Re-request and upgrade with no competitor: immediate. *)
          (match Lock_manager.lock lm (tid 1) (obj 0) Mode.Read ~timeout:10 () with
          | Lock_manager.Granted -> ()
          | Lock_manager.Timed_out ->
              Alcotest.fail "reentrant read blocked");
          match Lock_manager.lock lm (tid 1) (obj 0) Mode.Write ~timeout:10 () with
          | Lock_manager.Granted -> ()
          | Lock_manager.Timed_out ->
              Alcotest.fail "self upgrade blocked");
      ]
  in
  ()

let test_subtxn_sibling_conflict () =
  (* Two subtransactions of the same parent conflict like strangers —
     the paper's intra-transaction deadlock risk. *)
  let top = tid 1 in
  let s1 = Tid.child top ~index:0 and s2 = Tid.child top ~index:1 in
  let blocked = ref false in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm s1 (obj 0) Mode.Write ());
          Engine.delay 100);
        (fun _ lm ->
          Engine.delay 10;
          match Lock_manager.lock lm s2 (obj 0) Mode.Write ~timeout:50 () with
          | Lock_manager.Timed_out -> blocked := true
          | Lock_manager.Granted -> ());
      ]
  in
  Alcotest.(check bool) "sibling blocked" true !blocked

let test_subtxn_parent_not_blocking () =
  let top = tid 1 in
  let sub = Tid.child top ~index:0 in
  let granted = ref false in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm top (obj 0) Mode.Write ());
          match Lock_manager.lock lm sub (obj 0) Mode.Write ~timeout:50 () with
          | Lock_manager.Granted -> granted := true
          | Lock_manager.Timed_out -> ());
      ]
  in
  Alcotest.(check bool) "child passes ancestor's lock" true !granted

let test_subtxn_transfer_to_parent () =
  let top = tid 1 in
  let sub = Tid.child top ~index:0 in
  let stranger_blocked = ref false in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm sub (obj 0) Mode.Write ());
          Lock_manager.transfer_to_parent lm sub;
          (* Parent now holds it. *)
          Alcotest.(check bool) "still locked" true (Lock_manager.is_locked lm (obj 0));
          Alcotest.(check int) "parent holds" 1
            (List.length (Lock_manager.held_by lm top)));
        (fun _ lm ->
          Engine.delay 10;
          match Lock_manager.lock lm (tid 9) (obj 0) Mode.Write ~timeout:50 () with
          | Lock_manager.Timed_out ->
              stranger_blocked := true
          | Lock_manager.Granted -> ());
      ]
  in
  Alcotest.(check bool) "stranger still excluded" true !stranger_blocked

(* A sibling queued behind a child becomes admissible when the child
   commits into the parent: it is granted at the commit, not left to
   time out. *)
let test_subtxn_commit_grants_sibling () =
  let top = tid 1 in
  let c0 = Tid.child top ~index:0 and c1 = Tid.child top ~index:1 in
  let outcome = ref None in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm c0 (obj 0) Mode.Write ());
          Engine.delay 10;
          Lock_manager.transfer_to_parent lm c0);
        (fun e lm ->
          Engine.delay 5;
          let r = Lock_manager.lock lm c1 (obj 0) Mode.Write ~timeout:1_000 () in
          outcome := Some (r, Engine.now e));
      ]
  in
  match !outcome with
  | Some (Lock_manager.Granted, at) ->
      Alcotest.(check int) "granted at the commit" 10 at
  | Some (Lock_manager.Timed_out, at) ->
      Alcotest.failf "sibling refused at %d us" at
  | None -> Alcotest.fail "sibling never answered"

let test_subtxn_abort_releases () =
  let top = tid 1 in
  let sub = Tid.child top ~index:0 in
  let granted = ref false in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm sub (obj 0) Mode.Write ());
          Engine.delay 20;
          Lock_manager.release_all lm sub);
        (fun _ lm ->
          Engine.delay 10;
          match Lock_manager.lock lm (tid 9) (obj 0) Mode.Write ~timeout:500 () with
          | Lock_manager.Granted -> granted := true
          | Lock_manager.Timed_out -> ());
      ]
  in
  Alcotest.(check bool) "released after subtxn abort" true !granted

let test_typed_mode_concurrency () =
  (* Weak-queue style: enqueue and dequeue commute; two enqueuers
     conflict. *)
  let compat = Mode.with_typed [ ("enq", "deq") ] in
  let e = Engine.create () in
  let lm = Lock_manager.create ~compatible:compat e () in
  let results = ref [] in
  let attempt name tid_ mode =
    ignore
      (Engine.spawn e (fun () ->
           match Lock_manager.lock lm tid_ (obj 0) (Mode.Typed mode) ~timeout:100 () with
           | Lock_manager.Granted -> results := (name, true) :: !results
           | Lock_manager.Timed_out ->
               results := (name, false) :: !results))
  in
  attempt "enq1" (tid 1) "enq";
  attempt "deq" (tid 2) "deq";
  attempt "enq2" (tid 3) "enq";
  let _ = Engine.run e in
  let find n = List.assoc n !results in
  Alcotest.(check bool) "enq1 granted" true (find "enq1");
  Alcotest.(check bool) "deq compatible" true (find "deq");
  Alcotest.(check bool) "enq2 conflicts" false (find "enq2")

let test_fifo_no_starvation () =
  (* A queued writer blocks later readers even though those readers are
     compatible with the current holder. *)
  let log = ref [] in
  let _ =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm (tid 1) (obj 0) Mode.Read ());
          Engine.delay 100;
          Lock_manager.release_all lm (tid 1));
        (fun _ lm ->
          Engine.delay 10;
          ignore (Lock_manager.lock lm (tid 2) (obj 0) Mode.Write ());
          log := "writer" :: !log;
          Engine.delay 50;
          Lock_manager.release_all lm (tid 2));
        (fun _ lm ->
          Engine.delay 20;
          ignore (Lock_manager.lock lm (tid 3) (obj 0) Mode.Read ());
          log := "late-reader" :: !log);
      ]
  in
  Alcotest.(check (list string))
    "writer first despite reader compatibility"
    [ "writer"; "late-reader" ]
    (List.rev !log)

(* Regressions: cancelled waiters ------------------------------------- *)

let test_timeout_release_same_instant () =
  (* T2's wait expires at the same virtual instant T1 releases, and the
     timeout event is scheduled first (earlier insertion). The release
     must not re-grant the cancelled waiter: T2 has already returned
     Timed_out and will never release, so a hold recorded for it would
     leak forever. *)
  let t2_outcome = ref Lock_manager.Granted in
  let _, lm =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm (tid 1) (obj 0) Mode.Write ());
          Engine.delay 10;
          (* second hop lands exactly at T2's timeout instant, but is
             inserted after the timeout timer, so it runs second *)
          Engine.delay 95;
          Lock_manager.release_all lm (tid 1));
        (fun _ lm ->
          Engine.delay 5;
          t2_outcome :=
            Lock_manager.lock lm (tid 2) (obj 0) Mode.Write ~timeout:100 ());
      ]
  in
  Alcotest.(check bool)
    "t2 timed out" true
    (!t2_outcome = Lock_manager.Timed_out);
  Alcotest.(check int) "no leaked holds" 0 (Lock_manager.total_holds lm);
  Alcotest.(check bool)
    "object free afterwards" false
    (Lock_manager.is_locked lm (obj 0));
  Alcotest.(check int) "no stale waiters" 0 (Lock_manager.waiting lm)

let test_fifo_order_survives_mid_queue_timeout () =
  (* The lazy cancelled-waiter purge must not disturb FIFO grant order:
     writers T2, T3, T4, T5 queue behind T1's write hold; T3 times out
     mid-queue (its carcass stays queued until it reaches the front).
     When T1 releases, grants must flow T2 -> T4 -> T5 — the cancelled
     waiter skipped, everyone else in arrival order. *)
  let order = ref [] in
  let queued_writer ?timeout delay_ id hold =
    fun _ lm ->
      Engine.delay delay_;
      match Lock_manager.lock lm (tid id) (obj 0) Mode.Write ?timeout () with
      | Lock_manager.Granted ->
          order := id :: !order;
          Engine.delay hold;
          Lock_manager.release_all lm (tid id)
      | Lock_manager.Timed_out ->
          order := -id :: !order
  in
  let _, lm =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm (tid 1) (obj 0) Mode.Write ());
          Engine.delay 5_000;
          Lock_manager.release_all lm (tid 1));
        queued_writer 10 2 0;
        queued_writer ~timeout:1_000 20 3 0;
        queued_writer 30 4 0;
        queued_writer 40 5 0;
      ]
  in
  Alcotest.(check (list int))
    "FIFO preserved around the cancelled waiter"
    [ -3; 2; 4; 5 ]
    (List.rev !order);
  Alcotest.(check int) "no stale waiters counted" 0 (Lock_manager.waiting lm);
  Alcotest.(check int) "one timeout" 1 (Lock_manager.timeouts lm)

let test_try_lock_after_timeouts () =
  (* Once every queued waiter has timed out and the holder releases, a
     conditional request must succeed: expired waiters may not linger in
     the queue and veto it. *)
  let ok = ref false in
  let _, lm =
    run_fibers
      [
        (fun _ lm ->
          ignore (Lock_manager.lock lm (tid 1) (obj 0) Mode.Write ());
          Engine.delay 200;
          Lock_manager.release_all lm (tid 1));
        (fun _ lm ->
          Engine.delay 5;
          ignore
            (Lock_manager.lock lm (tid 2) (obj 0) Mode.Write ~timeout:50 ()));
        (fun _ lm ->
          Engine.delay 10;
          ignore
            (Lock_manager.lock lm (tid 3) (obj 0) Mode.Write ~timeout:50 ()));
        (fun _ lm ->
          Engine.delay 300;
          ok := Lock_manager.try_lock lm (tid 4) (obj 0) Mode.Write);
      ]
  in
  Alcotest.(check bool) "conditional grant after stale waiters" true !ok;
  Alcotest.(check int) "both waiters timed out" 2 (Lock_manager.timeouts lm);
  Alcotest.(check int) "queue empty" 0 (Lock_manager.waiting lm)

(* The family index against Lock_reference's table scans ------------------ *)

type lock_action =
  | L_lock of int * Mode.t * int (* key, mode, timeout *)
  | L_try of int * Mode.t
  | L_pause of int
  | L_finish (* a subtransaction passes its locks up; a top-level one drops them *)
  | L_release_subtree
  | L_release_family

(* One lock manager as the script sees it. *)
type manager = {
  m_lock : Tid.t -> Object_id.t -> Mode.t -> timeout:int -> Lock_manager.outcome;
  m_try : Tid.t -> Object_id.t -> Mode.t -> bool;
  m_held_by : Tid.t -> Object_id.t list;
  m_is_locked : Object_id.t -> bool;
  m_release_all : Tid.t -> unit;
  m_release_subtree : Tid.t -> unit;
  m_release_family : Tid.t -> unit;
  m_transfer : Tid.t -> unit;
  m_total_holds : unit -> int;
  m_waiting : unit -> int;
}

let real_manager lm =
  Lock_manager.
    {
      m_lock = (fun tid key mode ~timeout -> lock lm tid key mode ~timeout ());
      m_try = try_lock lm;
      m_held_by = held_by lm;
      m_is_locked = is_locked lm;
      m_release_all = release_all lm;
      m_release_subtree = release_subtree lm;
      m_release_family = release_family lm;
      m_transfer = transfer_to_parent lm;
      m_total_holds = (fun () -> total_holds lm);
      m_waiting = (fun () -> waiting lm);
    }

let reference_manager lm =
  Lock_reference.
    {
      m_lock = lock lm;
      m_try = try_lock lm;
      m_held_by = held_by lm;
      m_is_locked = is_locked lm;
      m_release_all = release_all lm;
      m_release_subtree = release_subtree lm;
      m_release_family = release_family lm;
      m_transfer = transfer_to_parent lm;
      m_total_holds = (fun () -> total_holds lm);
      m_waiting = (fun () -> waiting lm);
    }

(* Two families, each a top-level transaction, two children and a
   grandchild, over four keys. *)
let model_tids =
  List.concat_map
    (fun n ->
      let top = tid n in
      let c0 = Tid.child top ~index:0 in
      [ top; c0; Tid.child top ~index:1; Tid.child c0 ~index:0 ])
    [ 1; 2 ]

let model_keys = List.init 4 obj

(* Everything both managers must agree on: each transaction's keys,
   which keys are locked, and the two counts. *)
let observe m =
  ( List.map
      (fun t -> List.sort compare (List.map (fun (k : Object_id.t) -> k.offset) (m.m_held_by t)))
      model_tids,
    List.map m.m_is_locked model_keys,
    m.m_total_holds (),
    m.m_waiting () )

(* Run the fibers' scripts on one manager, then drain every family.
   The log holds each step's outcome and observation in the order the
   steps ran, so it also pins the order waiters are granted in. *)
let run_manager make fibers =
  let e = Engine.create () in
  let m, after_drain = make e in
  let log = ref [] in
  let note entry = log := (Engine.now e, entry, observe m) :: !log in
  List.iteri
    (fun i (who, start, script) ->
      let who = List.nth model_tids who in
      ignore
        (Engine.spawn e (fun () ->
             Engine.delay start;
             List.iteri
               (fun step action ->
                 let outcome =
                   match action with
                   | L_lock (k, mode, timeout) -> (
                       match m.m_lock who (obj k) mode ~timeout with
                       | Lock_manager.Granted -> "granted"
                       | Lock_manager.Timed_out -> "timed out")
                   | L_try (k, mode) -> string_of_bool (m.m_try who (obj k) mode)
                   | L_pause d ->
                       Engine.delay d;
                       ""
                   | L_finish ->
                       if Tid.is_top who then m.m_release_all who
                       else m.m_transfer who;
                       ""
                   | L_release_subtree ->
                       m.m_release_subtree who;
                       ""
                   | L_release_family ->
                       m.m_release_family who;
                       ""
                 in
                 note (Printf.sprintf "%d.%d %s" i step outcome))
               script)))
    fibers;
  let _ = Engine.run e in
  List.iter m.m_release_family [ tid 1; tid 2 ];
  note "drained";
  (List.rev !log, after_drain ())

(* Times are multiples of 10 so that time-outs often fall on the instant
   of a release or of another time-out. *)
let lock_script_gen =
  QCheck.Gen.(
    let key = int_bound 3 and mode = oneofl [ Mode.Read; Mode.Write ] in
    let ticks n = map (fun k -> 10 * k) (int_bound n) in
    let action =
      frequency
        [
          (5, map3 (fun k m t -> L_lock (k, m, 10 + t)) key mode (ticks 3));
          (2, map2 (fun k m -> L_try (k, m)) key mode);
          (2, map (fun d -> L_pause d) (ticks 3));
          (1, return L_finish);
          (1, return L_release_subtree);
          (1, return L_release_family);
        ]
    in
    list_size (int_range 1 6)
      (triple
         (int_bound (List.length model_tids - 1))
         (ticks 2)
         (list_size (int_range 1 8) action)))

let prop_lock_matches_reference =
  QCheck.Test.make ~name:"family index matches the table-scan model" ~count:500
    (QCheck.make lock_script_gen) (fun fibers ->
      let real, entries =
        run_manager
          (fun e ->
            let lm = Lock_manager.create e () in
            (real_manager lm, fun () -> Lock_manager.entries lm))
          fibers
      in
      let reference, _ =
        run_manager (fun e -> (reference_manager (Lock_reference.create e), Fun.const 0)) fibers
      in
      (* drained: no entry is left behind, not even a waiter carcass *)
      real = reference && entries = 0)

(* A sibling granted during its family's unlock re-files the key, which
   then comes first in the family's next unlock: at 30 the stranger
   queued on key 0 runs before the one queued on key 1. Granted waits
   cancel their time-outs, so the run also drains at 30, the last
   grant. *)
let test_refiled_key_unlocks_first () =
  let w k = L_lock (k, Mode.Write, 100) in
  let fibers =
    [
      (1, 0, [ w 0; L_pause 20; L_release_subtree ]);
      (2, 5, [ w 0 ]);
      (0, 0, [ w 1; L_pause 30; L_release_family ]);
      (4, 10, [ w 1 ]);
      (6, 10, [ w 0 ]);
    ]
  in
  let run make = fst (run_manager make fibers) in
  let real = run (fun e -> (real_manager (Lock_manager.create e ()), Fun.const 0)) in
  let grants =
    List.filter_map
      (fun (time, step, _) -> if time = 30 then Some step else None)
      real
  in
  Alcotest.(check (list string)) "grant order at the unlock"
    [ "2.1 "; "2.2 "; "4.0 granted"; "3.0 granted"; "drained" ] grants;
  Alcotest.(check bool) "matches the model" true
    (real = run (fun e -> (reference_manager (Lock_reference.create e), Fun.const 0)))

let suites =
  [
    ( "lock.mode",
      [
        quick "standard" test_mode_standard;
        quick "typed" test_mode_typed;
        QCheck_alcotest.to_alcotest prop_mode_symmetric;
      ] );
    ( "lock.manager",
      [
        quick "shared readers" test_shared_readers;
        quick "writer excludes" test_writer_excludes;
        quick "timeout" test_lock_timeout;
        quick "deadlock broken" test_deadlock_broken_by_timeout;
        quick "conditional" test_conditional_lock;
        quick "is_locked" test_is_locked;
        quick "reentrant/upgrade" test_reentrant_and_upgrade;
        quick "typed concurrency" test_typed_mode_concurrency;
        quick "fifo no starvation" test_fifo_no_starvation;
        quick "same-instant timeout/release" test_timeout_release_same_instant;
        quick "fifo around cancelled waiter" test_fifo_order_survives_mid_queue_timeout;
        quick "try_lock after timeouts" test_try_lock_after_timeouts;
      ] );
    ( "lock.subtxn",
      [
        quick "sibling conflict" test_subtxn_sibling_conflict;
        quick "ancestor passes" test_subtxn_parent_not_blocking;
        quick "transfer to parent" test_subtxn_transfer_to_parent;
        quick "commit grants queued sibling" test_subtxn_commit_grants_sibling;
        quick "abort releases" test_subtxn_abort_releases;
      ] );
    ( "lock.model",
      [
        quick "re-filed key unlocks first" test_refiled_key_unlocks_first;
        QCheck_alcotest.to_alcotest prop_lock_matches_reference;
      ] );
  ]
