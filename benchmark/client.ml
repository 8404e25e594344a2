(* The open-loop client and the crash controller.

   Each arrival becomes one logical transaction, run by a fiber on its
   home shard's node (the gateway). A gateway admits at most
   [max_in_flight] transactions at once and queues later arrivals FIFO;
   that bound belongs to the client, not to the system. A transaction
   that names a shard which is down waits aside until the shard's
   restart begins. An attempt that aborts is retried at once on the same
   slot, so every transaction ends committed unless it runs out of
   attempts. Latency is timed from the arrival's due time to the
   verdict, so it includes queueing and every retry.

   A crash happens at a transaction boundary of its victim: the shard
   stops taking new transactions, and its node is crashed as soon as no
   running transaction names it. Crashing a node with transactions in
   flight breaks atomicity in the library today (see README.md), and
   the benchmark must not report a broken system's numbers.

   With [tracing], each transaction's spans are kept in memory: a [txn]
   span from due time to verdict, whose children [wait], [begin], one
   [op] per [Sharded] call, [commit] and [abort] tile it with no gap or
   overlap. Each restart gets a [restart] span from its start until the
   node opened. *)

open Tabs_sim
open Tabs_core

let max_in_flight = 64

let max_attempts = 32

type outcome = Pending | Committed | Failed

type txn = {
  index : int;
  spec : Workload.txn;
  due : int;  (** absolute virtual time *)
  sampled : bool;  (** due inside the measured part of the window *)
  mutable attempts : int;
  mutable started : int;  (** first attempt's start; -1 before *)
  mutable waited : bool;  (** queued or set aside instead of starting at [due] *)
  mutable outcome : outcome;
  mutable verdict_at : int;
  mutable cursor : int;  (** end of the last span recorded *)
}

(** A restart span has [id = -1 - shard]. *)
type span = { id : int; name : string; start : int; stop : int }

type gateway = { mutable in_flight : int; queue : txn Queue.t }

type restart = {
  open_us : int;
  scanned : int;
  losers : int;
  in_doubt : int;
}

type t = {
  sys : System.t;
  engine : Engine.t;
  tracing : bool;
  gateways : gateway array;
  down : bool array;  (** per shard: draining, crashed, or awaiting restart *)
  naming : int array;  (** per shard: running transactions that name it *)
  set_aside : txn Queue.t;  (** transactions naming a down shard *)
  mutable on_quiet : (int * (unit -> unit)) list;
      (** (shard, action) to run once no running transaction names it *)
  mutable txns : txn list;  (** every transaction issued, newest first *)
  mutable next_index : int;
  latencies : Tabs_obs.Hist.t;  (** µs, committed sampled transactions *)
  mutable latency_sum : int;
  in_flight_at_arrival : Tabs_obs.Hist.t;
  mutable committed : int;
  mutable committed_sampled : int;
  mutable retried : int;  (** transactions that needed more than one attempt *)
  expected : (int, int) Hashtbl.t;
      (** key -> stamp of its last committed writer, in commit-return order *)
  written : (int, unit) Hashtbl.t;  (** every key any attempt wrote *)
  victim_since : int array;
      (** per shard: start of a restart still awaiting its first commit *)
  mutable ttfc : int list;
  mutable restarts : restart list;
  restart_began : int array;  (** per node: start of its latest restart *)
  mutable spans : span list;
  mutable tiling_errors : int;
}

let create sys ~tracing =
  let shards = Workload.shards in
  {
    sys;
    engine = System.engine sys;
    tracing;
    gateways = Array.init shards (fun _ -> { in_flight = 0; queue = Queue.create () });
    down = Array.make shards false;
    naming = Array.make shards 0;
    set_aside = Queue.create ();
    on_quiet = [];
    txns = [];
    next_index = 0;
    latencies = Tabs_obs.Hist.create ();
    latency_sum = 0;
    in_flight_at_arrival = Tabs_obs.Hist.create ();
    committed = 0;
    committed_sampled = 0;
    retried = 0;
    expected = Hashtbl.create 1024;
    written = Hashtbl.create 1024;
    victim_since = Array.make shards (-1);
    ttfc = [];
    restarts = [];
    restart_began = Array.make shards (-1);
    spans = [];
    tiling_errors = 0;
  }

let now c = Engine.now c.engine

let span c (txn : txn) name start stop =
  if c.tracing then begin
    if start <> txn.cursor then c.tiling_errors <- c.tiling_errors + 1;
    txn.cursor <- stop;
    c.spans <- { id = txn.index; name; start; stop } :: c.spans
  end

let names (txn : txn) s = txn.spec.touches land (1 lsl s) <> 0

let each_named c txn f =
  for s = 0 to Array.length c.down - 1 do
    if names txn s then f s
  done

let ready c txn =
  let ok = ref true in
  each_named c txn (fun s -> if c.down.(s) then ok := false);
  !ok

let stamp (txn : txn) = (txn.index * max_attempts) + txn.attempts

let rec admit c g =
  let gw = c.gateways.(g) in
  if gw.in_flight < max_in_flight && not (Queue.is_empty gw.queue) then begin
    let txn = Queue.pop gw.queue in
    if ready c txn then start c g txn else Queue.push txn c.set_aside;
    admit c g
  end

and start c g txn =
  c.gateways.(g).in_flight <- c.gateways.(g).in_flight + 1;
  each_named c txn (fun s -> c.naming.(s) <- c.naming.(s) + 1);
  if txn.started < 0 then txn.started <- now c;
  if now c > txn.cursor then span c txn "wait" txn.cursor (now c);
  Cluster.spawn (System.cluster c.sys) ~node:g (fun () -> attempt c g txn)

(* One attempt, then the next on abort. Runs in a fiber on gateway
   [g]. *)
and attempt c g txn =
  txn.attempts <- txn.attempts + 1;
  if txn.attempts = 2 then c.retried <- c.retried + 1;
  let node = System.node c.sys g in
  let tm = Node.tm node and rpc = Node.rpc node in
  let stamp = stamp txn in
  let t0 = now c in
  let tid = Txn_lib.begin_transaction tm () in
  span c txn "begin" t0 (now c);
  let rec ops = function
    | [] -> Ok ()
    | (o : Workload.op) :: rest -> (
        (match o with Write k -> Hashtbl.replace c.written k () | _ -> ());
        let s = now c in
        match System.apply c.sys rpc tid ~stamp o with
        | () ->
            span c txn "op" s (now c);
            ops rest
        | exception
            (( Errors.Lock_timeout _ | Errors.Deadlock _ | Errors.Transaction_is_aborted _
             | Rpc.Rpc_timeout _ | Errors.Server_error _ ) as e) ->
            span c txn "op" s (now c);
            Error e)
  in
  match ops txn.spec.ops with
  | Ok () ->
      let s = now c in
      let ok = Txn_lib.end_transaction tm tid in
      span c txn "commit" s (now c);
      if ok then committed c g txn stamp else retry c g txn
  | Error e -> (
      let s = now c in
      Txn_lib.abort_transaction tm tid;
      span c txn "abort" s (now c);
      match e with
      | Errors.Server_error _ -> finish c g txn Failed
      | _ -> retry c g txn)

and retry c g txn =
  if txn.attempts >= max_attempts then finish c g txn Failed else attempt c g txn

and committed c g txn stamp =
  c.committed <- c.committed + 1;
  List.iter
    (function Workload.Write k -> Hashtbl.replace c.expected k stamp | _ -> ())
    txn.spec.ops;
  let t = now c in
  if txn.sampled then begin
    c.committed_sampled <- c.committed_sampled + 1;
    Tabs_obs.Hist.add c.latencies (t - txn.due);
    c.latency_sum <- c.latency_sum + (t - txn.due)
  end;
  each_named c txn (fun s ->
      if c.victim_since.(s) >= 0 then begin
        c.ttfc <- (t - c.victim_since.(s)) :: c.ttfc;
        c.victim_since.(s) <- -1
      end);
  finish c g txn Committed

and finish c g txn outcome =
  txn.outcome <- outcome;
  txn.verdict_at <- now c;
  if c.tracing then begin
    if txn.cursor <> txn.verdict_at then c.tiling_errors <- c.tiling_errors + 1;
    c.spans <- { id = txn.index; name = "txn"; start = txn.due; stop = txn.verdict_at } :: c.spans
  end;
  c.gateways.(g).in_flight <- c.gateways.(g).in_flight - 1;
  each_named c txn (fun s -> c.naming.(s) <- c.naming.(s) - 1);
  run_quiet c;
  admit c g

and run_quiet c =
  let due, waiting = List.partition (fun (s, _) -> c.naming.(s) = 0) c.on_quiet in
  c.on_quiet <- waiting;
  List.iter (fun (_, f) -> f ()) due

(* Route a transaction that has not started: set aside while it names a
   down shard, else start it or queue it at its gateway. *)
let route c txn =
  let g = txn.spec.home in
  let gw = c.gateways.(g) in
  if not (ready c txn) then begin
    txn.waited <- true;
    Queue.push txn c.set_aside
  end
  else if gw.in_flight < max_in_flight && Queue.is_empty gw.queue then start c g txn
  else begin
    txn.waited <- true;
    Queue.push txn gw.queue
  end

let issue c (spec : Workload.txn) ~due ~sampled =
  let txn =
    {
      index = c.next_index;
      spec;
      due;
      sampled;
      attempts = 0;
      started = -1;
      waited = false;
      outcome = Pending;
      verdict_at = -1;
      cursor = due;
    }
  in
  c.next_index <- c.next_index + 1;
  c.txns <- txn :: c.txns;
  Tabs_obs.Hist.add c.in_flight_at_arrival c.gateways.(spec.home).in_flight;
  route c txn

(* Restart [shard]'s node. Once the new incarnation exists and recovery
   is under way, the shard takes transactions again, as a client
   retrying against it would find; [then_] runs at that point. *)
let restart c shard ~then_ =
  ignore
    (Engine.spawn c.engine (fun () ->
         let began = now c in
         c.victim_since.(shard) <- began;
         c.restart_began.(shard) <- began;
         Engine.at c.engine ~delay:0 (fun () ->
             c.down.(shard) <- false;
             let aside = Queue.copy c.set_aside in
             Queue.clear c.set_aside;
             Queue.iter (route c) aside;
             then_ ());
         let o = System.restart c.sys shard in
         let open Tabs_recovery.Recovery_mgr in
         if c.tracing then
           c.spans <-
             { id = -1 - shard; name = "restart"; start = began; stop = began + o.time_to_open_us }
             :: c.spans;
         c.restarts <-
           {
             open_us = o.time_to_open_us;
             scanned = o.records_scanned;
             losers = List.length o.losers;
             in_doubt = List.length o.in_doubt;
           }
           :: c.restarts))

(* Stop giving [shard] new transactions, crash its node once none
   running names it, and restart it [Workload.restart_delay] later. *)
let crash c shard ~then_ =
  c.down.(shard) <- true;
  c.on_quiet <-
    c.on_quiet
    @ [
        ( shard,
          fun () ->
            Engine.at c.engine ~delay:0 (fun () ->
                System.crash c.sys shard;
                Engine.at c.engine ~delay:Workload.restart_delay (fun () ->
                    restart c shard ~then_)) );
      ];
  run_quiet c

(* Schedule the arrival window: arrivals at [start + due], and the
   workload's crashes. *)
let schedule c (w : Workload.t) (inputs : Workload.inputs) ~start =
  let warmup = start + (w.warmup_s * 1_000_000) in
  let arrivals = inputs.arrivals in
  let rec arrive i () =
    let spec = arrivals.(i) in
    let due = start + spec.due in
    issue c spec ~due ~sampled:(due >= warmup);
    if i + 1 < Array.length arrivals then
      Engine.at c.engine ~delay:(start + arrivals.(i + 1).due - now c) (arrive (i + 1))
  in
  if Array.length arrivals > 0 then
    Engine.at c.engine ~delay:(start + arrivals.(0).due - now c) (arrive 0);
  List.iter
    (fun (at, shard) ->
      Engine.at c.engine ~delay:(start + at - now c) (fun () -> crash c shard ~then_:ignore))
    inputs.crashes

(* A restart probe: checkpoint [shard]'s node, crash it, and issue the
   probe transaction as its restart begins. The checkpoint forces the
   log: a subordinate appends its commit record without forcing it, and
   after an idle spell the record may still be volatile, while the
   coordinator, once restarted from a later checkpoint, no longer
   remembers the outcome and would answer the in-doubt subordinate
   "aborted" (see README.md). *)
let probe c (inputs : Workload.inputs) shard =
  Cluster.spawn (System.cluster c.sys) ~node:shard (fun () ->
      Node.checkpoint (System.node c.sys shard);
      crash c shard ~then_:(fun () -> issue c inputs.probes.(shard) ~due:(now c) ~sampled:false))
