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
     checkpointing, and parallel recovery running at once. *)

open Tabs_sim
open Tabs_wal
open Tabs_accent
open Tabs_recovery
open Tabs_core
open Crash_harness

(* --- crash at a random instant over a full node ---------------------- *)

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
  (* live node: instant restart, then read every page while the trickle
     is still draining — first touches replay parked chains on demand *)
  let touch_every_page () =
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
        done)
  in
  let outcome =
    crash_matches_oracle c ~what:"instant restart" ~seed ~cells ~accounts
      ~think:2_000 ~crash_from:60_000 ~window ~after_restart:touch_every_page
      ()
  in
  Alcotest.(check bool) "live restart opened early" true outcome.open_early;
  Alcotest.(check int) "no upfront replay" 0 outcome.replay_us;
  let m = Metrics.recovery (Engine.metrics (Cluster.engine c)) ~node:0 in
  Alcotest.(check int) "every parked chain drained" 0 m.Metrics.pending_pages;
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
