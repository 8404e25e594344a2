open Tabs_sim
open Tabs_wal
open Tabs_net
open Tabs_recovery

type outcome = Committed | Aborted

type vote = Yes | No | Read_only

(* 2PC trace events. [node] is the node observing the transition, so a
   distributed commit interleaves events from every tree node in one
   stream. Spans (lib/obs) use the coordinator's Txn_begin/commit/abort
   as the transaction's boundaries. *)
type Trace.event +=
  | Txn_begin of { node : int; tid : Tid.t }
  | Txn_commit of { node : int; tid : Tid.t; distributed : bool }
  | Txn_abort of { node : int; tid : Tid.t; reason : Trace.abort_reason }
  | Prepare_sent of { node : int; tid : Tid.t; dests : int list }
  | Prepare_received of { node : int; tid : Tid.t; src : int }
  | Vote_sent of { node : int; tid : Tid.t; dest : int; vote : vote }
  | Vote_received of { node : int; tid : Tid.t; src : int; vote : vote }
  | Verdict_sent of {
      node : int;
      tid : Tid.t;
      outcome : outcome;
      dests : int list;
    }
  | Verdict_received of {
      node : int;
      tid : Tid.t;
      outcome : outcome;
      src : int;
    }
  | Ack_received of { node : int; tid : Tid.t; src : int }
  | Prepared_in_doubt of { node : int; tid : Tid.t; coordinator : int }
  | In_doubt_resolved of { node : int; tid : Tid.t; outcome : outcome }
  | Status_query_sent of { node : int; tid : Tid.t; coordinator : int }
  | Resolution_abandoned of {
      node : int;
      tid : Tid.t;
      coordinator : int;
      attempts : int;
    }
      (* a resolver or orphan watchdog exhausted its status-query
         budget and gave up with the transaction still undecided here —
         its write locks stay held. Under 2PC this is the protocol's
         blocking window made permanent; it is what Paxos Commit
         removes. *)

type Network.payload +=
  | Tm_prepare of Tid.t
  | Tm_vote of Tid.t * vote
  | Tm_commit of Tid.t
  | Tm_abort of Tid.t
  | Tm_ack of Tid.t
  | Tm_status_query of Tid.t
  | Tm_status_reply of Tid.t * outcome

type server_callbacks = {
  on_outcome : Tid.t -> outcome -> unit;
  on_subtxn_commit : Tid.t -> unit;
  on_subtxn_abort : Tid.t -> unit;
}

(* Coordinator-side bookkeeping for one phase of the tree protocol:
   which children still owe a message, and whether anything went
   wrong. *)
type gather = {
  mutable awaiting : int list;
  mutable any_no : bool;
  mutable all_read_only : bool;
  mutable timed_out : bool;
      (* some child never answered within the vote timeout — the abort
         is a communication failure, not a No vote *)
  signal : unit Engine.Waitq.t;
}

(* A child that has not voted within this long is presumed crashed; a
   Paxos root waits as long for its accept quorum. *)
let vote_timeout = 2_000_000

(* Commits between the checkpoints a TM asks of its RM. *)
let checkpoint_interval = 50

type t = {
  engine : Engine.t;
  node_id : int;
  profile : Profile.t;
  rm : Recovery_mgr.t;
  cm : Comm_mgr.t;
  mutable px : Paxos.t option; (* Some iff the node runs Paxos Commit *)
  read_only_optimization : bool;
  mutable ready : bool;
      (* false while a restart is replaying the log: a mid-recovery "no
         record of that transaction" is not "no transaction", so status
         queries must wait for {!recover} to finish *)
  mutable resolutions_abandoned : int;
  mutable commits_since_checkpoint : int;
  mutable distributed_commits : int;
      (* committed tree 2PC rounds this TM coordinated (bench accounting) *)
  mutable next_seq : int;
  servers : (string, server_callbacks) Hashtbl.t;
  joined : (Tid.t, string list) Hashtbl.t; (* top tid -> local servers *)
  sub_counters : (Tid.t, int) Hashtbl.t;
      (* top tid -> next subtransaction index, unique in the family *)
  aborted : (Tid.t, unit) Hashtbl.t; (* tids (incl. subtxns) locally known aborted *)
  outcomes : (Tid.t, outcome) Hashtbl.t; (* top tids with known verdicts *)
  gathers : (Tid.t, gather) Hashtbl.t; (* vote collection in flight *)
  acks : (Tid.t, gather) Hashtbl.t; (* ack collection in flight *)
  participants : (Tid.t, int) Hashtbl.t;
      (* prepared, in doubt: top tid -> coordinator *)
  queries : (Tid.t, Engine.timer) Hashtbl.t;
      (* top tid -> the pending step of its status-query loop *)
}

let distributed_commits t = t.distributed_commits

let resolutions_abandoned t = t.resolutions_abandoned

let hold_status_queries t = t.ready <- false

let register_server t ~name callbacks = Hashtbl.replace t.servers name callbacks

let small t = Engine.charge t.engine Cost_model.Small_contiguous_message

let tracing t = Engine.tracing t.engine

let emit t ev = Engine.emit t.engine ev

let joined_servers t tid =
  match Hashtbl.find_opt t.joined (Tid.top_level tid) with
  | Some names -> names
  | None -> []

let callbacks t name = Hashtbl.find t.servers name

(* Identifier allocation ---------------------------------------------- *)

let begin_txn t =
  (* request + reply between application and Transaction Manager *)
  small t;
  let tid = Tid.top ~node:t.node_id ~seq:t.next_seq in
  t.next_seq <- t.next_seq + 1;
  (* live before its begin record, so a checkpoint in between lists it *)
  Hashtbl.replace t.joined tid [];
  ignore (Recovery_mgr.append_tm_record t.rm (Record.Txn_begin tid));
  if tracing t then emit t (Txn_begin { node = t.node_id; tid });
  small t;
  tid

let begin_subtxn t parent =
  small t;
  let top = Tid.top_level parent in
  let index = Option.value (Hashtbl.find_opt t.sub_counters top) ~default:0 in
  Hashtbl.replace t.sub_counters top (index + 1);
  let tid = Tid.child parent ~index in
  small t;
  tid

let join t ~tid ~server =
  let names = joined_servers t tid in
  let fresh = not (List.mem server names) in
  if fresh then begin
    (* joined from here on, so a checkpoint taken during the message
       lists the transaction as active *)
    Hashtbl.replace t.joined (Tid.top_level tid) (server :: names);
    (* the data server's first-operation message to the TM *)
    small t
  end;
  fresh

(* [tid] or one of its ancestors is known aborted: O(depth) lookups. *)
let rec is_aborted t tid =
  Hashtbl.mem t.aborted tid
  || match Tid.parent tid with Some p -> is_aborted t p | None -> false

let active_txns t =
  Hashtbl.fold
    (fun top _ acc -> if Hashtbl.mem t.outcomes top then acc else top :: acc)
    t.joined []

(* Local undo of a whole family's updates at this node. *)
let undo_family_local t tid =
  let log = Recovery_mgr.log t.rm in
  List.iter
    (fun member -> Recovery_mgr.abort t.rm ~tid:member)
    (Log_manager.chained_tids_of_family log tid)

let family_wrote_locally t tid =
  Log_manager.chained_tids_of_family (Recovery_mgr.log t.rm) tid <> []

let forget t top =
  Hashtbl.remove t.joined top;
  Hashtbl.remove t.sub_counters top;
  Hashtbl.remove t.gathers top;
  Hashtbl.remove t.acks top;
  Comm_mgr.forget_txn t.cm top

let notify_local_servers t top outcome =
  List.iter
    (fun name ->
      small t;
      (callbacks t name).on_outcome top outcome)
    (joined_servers t top)

(* Phase-one local work: each joined server's prepare request and its
   Yes reply (a data server never refuses). *)
let local_votes t top =
  List.iter (fun _ -> small t; small t) (joined_servers t top)

(* Vote gathering ------------------------------------------------------ *)

let new_gather () table top children =
  let g =
    {
      awaiting = children;
      any_no = false;
      all_read_only = true;
      timed_out = false;
      signal = Engine.Waitq.create ();
    }
  in
  Hashtbl.replace table top g;
  g

let gather_note t table top src verdict =
  match Hashtbl.find_opt table top with
  | None -> ()
  | Some g ->
      if List.mem src g.awaiting then begin
        g.awaiting <- List.filter (fun n -> n <> src) g.awaiting;
        if verdict <> Read_only then g.all_read_only <- false;
        if verdict = No then g.any_no <- true;
        if g.awaiting = [] then
          ignore (Engine.Waitq.signal g.signal ~engine:t.engine ())
      end

let wait_gather t g =
  if g.awaiting <> [] then
    match
      Engine.Waitq.wait_timeout g.signal ~engine:t.engine ~timeout:vote_timeout
    with
    | Some () -> ()
    | None ->
        (* a silent child is presumed crashed *)
        g.any_no <- true;
        g.timed_out <- true

(* Outcome distribution down the tree. Phase-2 COMMIT/ABORT datagrams
   go through the Communication Manager's datagram path: with comm
   batching on, verdicts for concurrent transactions headed to the same
   child coalesce into one wire message there, and the child's Tm_ack
   rides its next outgoing frame's batch — the commit protocol needs no
   batching logic of its own. *)

let propagate_outcome t top outcome ~to_nodes =
  match to_nodes with
  | [] -> ()
  | nodes ->
      let payload =
        match outcome with Committed -> Tm_commit top | Aborted -> Tm_abort top
      in
      if tracing t then
        emit t
          (Verdict_sent { node = t.node_id; tid = top; outcome; dests = nodes });
      Comm_mgr.send_datagrams_parallel t.cm ~dests:nodes payload

(* "Checkpoints are performed at intervals determined by the
   transaction manager or when the system is close to running out of
   log space" (Section 3.2.2): count commits and periodically ask the
   Recovery Manager for a checkpoint plus, if needed, reclamation. *)
let maybe_periodic_checkpoint t =
  t.commits_since_checkpoint <- t.commits_since_checkpoint + 1;
  if t.commits_since_checkpoint >= checkpoint_interval then begin
    t.commits_since_checkpoint <- 0;
    ignore
      (Engine.spawn t.engine ~node:t.node_id (fun () ->
           Recovery_mgr.checkpoint t.rm;
           ignore (Recovery_mgr.maybe_reclaim t.rm)))
  end

(* The transaction is decided here: its status-query loop has nothing
   left to ask. *)
let stop_querying t top =
  match Hashtbl.find_opt t.queries top with
  | Some timer ->
      Engine.cancel t.engine timer;
      Hashtbl.remove t.queries top
  | None -> ()

let record_outcome t top outcome =
  stop_querying t top;
  Hashtbl.replace t.outcomes top outcome;
  if outcome = Committed then maybe_periodic_checkpoint t

(* Abort of a top-level transaction (local part + propagation). *)
let abort_top t top ~children ~reason =
  if not (Hashtbl.mem t.outcomes top) then begin
    record_outcome t top Aborted;
    if tracing t then emit t (Txn_abort { node = t.node_id; tid = top; reason });
    Hashtbl.replace t.aborted top ();
    if family_wrote_locally t top then undo_family_local t top;
    ignore (Recovery_mgr.append_tm_record t.rm (Record.Txn_abort top));
    notify_local_servers t top Aborted;
    propagate_outcome t top Aborted ~to_nodes:children
  end

let force t record =
  Recovery_mgr.force_through t.rm (Recovery_mgr.append_tm_record t.rm record)

(* Phase one below any node: prepares go down to [children] while the
   local servers vote; [cast ()] runs between the local vote and the
   wait, so a Paxos root can force its prepare and cast its own
   ballot-0 vote while the children's votes are in flight. *)
let prepare_subtree t top ~children ~cast =
  let g = new_gather () t.gathers top children in
  if tracing t then
    emit t (Prepare_sent { node = t.node_id; tid = top; dests = children });
  Comm_mgr.send_datagrams_parallel t.cm ~dests:children (Tm_prepare top);
  local_votes t top;
  cast ();
  wait_gather t g;
  Hashtbl.remove t.gathers top;
  g

let abort_reason g =
  if g.timed_out then Trace.Comm_failure else Trace.Vote_no

(* Whole subtree read-only: one phase suffices; subordinates already
   released their locks when they voted Read_only. *)
let read_only_tree t g ~wrote =
  t.read_only_optimization && (not wrote) && g.all_read_only

let end_leadership t top =
  match t.px with Some px -> Paxos.end_leader px top | None -> ()

(* The root's one commit verdict. Second phase goes only to children
   that held updates. The transaction is decided once the decision
   point is passed, so on an Integrated node the outcome distribution
   overlaps with succeeding transactions (Section 5.3's optimized
   commit protocol) in a background fiber; the Classic prototype kept
   it on the caller's critical path, as the paper measured. *)
let root_committed t top ~children ~distributed ~phase_two =
  if distributed then t.distributed_commits <- t.distributed_commits + 1;
  record_outcome t top Committed;
  if tracing t then emit t (Txn_commit { node = t.node_id; tid = top; distributed });
  notify_local_servers t top Committed;
  if phase_two then begin
    let second_phase () =
      let a = new_gather () t.acks top children in
      propagate_outcome t top Committed ~to_nodes:children;
      wait_gather t a;
      Hashtbl.remove t.acks top;
      ignore (Recovery_mgr.append_tm_record t.rm (Record.Txn_end top));
      end_leadership t top;
      forget t top
    in
    match t.profile with
    | Profile.Classic -> second_phase ()
    | Profile.Integrated ->
        ignore (Engine.spawn t.engine ~node:t.node_id second_phase)
  end
  else begin
    end_leadership t top;
    forget t top
  end;
  small t;
  (* verdict to application *)
  Committed

let root_aborted t top ~children ~reason =
  abort_top t top ~children ~reason;
  end_leadership t top;
  forget t top;
  small t;
  Aborted

(* Tree commit under Paxos Commit: only the decision point differs. The
   spanning tree and both phases are unchanged — prepares flow down,
   votes flow up, the verdict flows down — but root-level participants
   additionally multicast their votes to the 2F+1 acceptors as ballot-0
   accepts, and the decision point moves from "coordinator's commit
   record forced" to "every instance holds F+1 Prepared accepts". Two
   consequences:

   - the coordinator appends its commit record {e unforced}: the
     outcome is already quorum-durable at the acceptors, and a takeover
     quorum necessarily intersects every accept quorum, so nothing is
     lost if this node crashes before the append reaches disk;
   - the coordinator may not presume abort on vote-phase {e silence}: a
     silent child's Prepared vote may already be stable in an acceptor
     quorum that a concurrent takeover is reading, so silence is
     resolved by running a real ballot. An explicit No is still an
     immediate abort — the No voter never cast Prepared, so no ballot
     can ever choose Commit. *)
let commit_paxos t px top ~children ~wrote =
  Paxos.begin_leader px top ~parts:(t.node_id :: children);
  let g =
    prepare_subtree t top ~children ~cast:(fun () ->
        (* the coordinator's own instance: force the prepare first (a
           vote must never outlive the updates it promises), then cast *)
        if wrote then force t (Record.Txn_prepare (top, t.node_id));
        Paxos.cast_vote px top ~part:t.node_id ~yes:true)
  in
  let committed () =
    ignore (Recovery_mgr.append_tm_record t.rm (Record.Txn_commit top));
    Paxos.announce px top ~committed:true;
    root_committed t top ~children ~distributed:true ~phase_two:true
  in
  let aborted ~reason ~announce =
    if announce then Paxos.announce px top ~committed:false;
    root_aborted t top ~children ~reason
  in
  let by_ballot () =
    if Paxos.resolve_as_coordinator px top then committed ()
    else aborted ~reason:Trace.Comm_failure ~announce:false
  in
  (* a takeover beat us to a verdict while we gathered votes? *)
  match Paxos.decision_of px top with
  | Some true -> committed ()
  | Some false -> aborted ~reason:Trace.Comm_failure ~announce:false
  | None ->
      if g.any_no && not g.timed_out then
        (* an explicit No somewhere: abort directly, and tell the
           acceptors so in-doubt queries are answerable at once *)
        aborted ~reason:Trace.Vote_no ~announce:true
      else if g.timed_out then
        (* silence: resolve through a ballot, never unilaterally *)
        by_ballot ()
      else if read_only_tree t g ~wrote then begin
        (* nothing durable at stake *)
        Paxos.announce px top ~committed:true;
        root_committed t top ~children ~distributed:true ~phase_two:false
      end
      else
        match Paxos.await_quorum px top ~timeout:vote_timeout with
        | `Commit | `Decided true -> committed ()
        | `Abort | `Decided false -> aborted ~reason:Trace.Vote_no ~announce:true
        | `Timeout ->
            (* votes arrived but accept confirmations did not — fewer
               than F+1 acceptors reachable. Paxos blocks here, by
               design: resolve through a ballot when quorum returns. *)
            by_ballot ()

(* The root's commit. One tree protocol with three decision points: a
   local transaction (no remote spread recorded) has no prepare round
   and forces its commit record only if it wrote; tree 2PC decides at
   the forced commit record; Paxos Commit at an acceptor quorum. *)
let commit_top t top ~distributed =
  small t;
  (* commit request *)
  let wrote = family_wrote_locally t top in
  Engine.charge_cpu t.engine ~process:"tm"
    (Overheads.tm_local_readonly + if wrote then Overheads.tm_commit_write else 0);
  Engine.charge_cpu t.engine ~process:"rm"
    (Overheads.rm_local_readonly + if wrote then Overheads.rm_commit_write else 0);
  if not distributed then begin
    local_votes t top;
    if wrote then force t (Record.Txn_commit top);
    root_committed t top ~children:[] ~distributed ~phase_two:false
  end
  else
    let children = Comm_mgr.children_of t.cm top in
    match t.px with
    | Some px -> commit_paxos t px top ~children ~wrote
    | None ->
        let g = prepare_subtree t top ~children ~cast:ignore in
        if g.any_no then root_aborted t top ~children ~reason:(abort_reason g)
        else if read_only_tree t g ~wrote then
          root_committed t top ~children ~distributed ~phase_two:false
        else begin
          force t (Record.Txn_commit top);
          root_committed t top ~children ~distributed ~phase_two:true
        end

(* Subordinate side ----------------------------------------------------- *)

(* Status-query resolution. One loop serves both the in-doubt resolver
   (a prepared participant awaiting its coordinator's verdict) and the
   orphan watchdog (a node drawn in by remote traffic that may never
   hear the verdict: under presumed abort the coordinator's Tm_abort is
   a single unacknowledged datagram, so if it is lost before the
   participant was even prepared, nothing else would ever release its
   write locks). A transaction has at most one loop: preparing turns
   the watchdog into the resolver. Each step of the loop is an engine
   timer, cancelled when the transaction is decided here, so no fiber
   sleeps per transaction and a healthy commit leaves no event behind.

   Under 2PC the query goes to the coordinator, which answers with the
   recorded outcome — or presumed abort — once it genuinely has no
   record. Under Paxos Commit the query goes to the acceptors instead:
   they answer once a decision is chosen, and an unanswered query arms
   their takeover watchdog, so resolution does not depend on the
   coordinator ever coming back. *)

let coordinator_of t top =
  match Comm_mgr.parent_of t.cm top with
  | Some p -> p
  | None -> top.Tid.node

let send_status_query t top ~coordinator =
  if tracing t then
    emit t (Status_query_sent { node = t.node_id; tid = top; coordinator });
  match t.px with
  | Some px ->
      Comm_mgr.send_datagrams_parallel t.cm ~dests:(Paxos.acceptors px)
        (Paxos.Px_status_query top)
  | None ->
      Comm_mgr.send_datagram t.cm ~dest:coordinator (Tm_status_query top)

(* Queries stop after a while so a simulation can quiesce, but the
   transaction stays undecided and its data stays locked. Giving up
   used to be silent; now it is observable — a trace event, the
   engine-wide Metrics.tm counter, and a per-TM count surfaced next to
   {!in_doubt} — because a participant blocked forever with locks held
   is the failure mode this whole layer exists to expose. *)
let abandon_resolution t top ~coordinator ~attempts =
  t.resolutions_abandoned <- t.resolutions_abandoned + 1;
  let m = Metrics.tm (Engine.metrics t.engine) in
  m.Metrics.resolutions_abandoned <- m.Metrics.resolutions_abandoned + 1;
  if tracing t then
    emit t
      (Resolution_abandoned { node = t.node_id; tid = top; coordinator; attempts })

(* Query after [first], then every [every] while undecided. The
   resolver knows its coordinator; the watchdog asks the spanning tree
   when it sends. *)
let start_querying t top ?coordinator ~first ~every () =
  let rec arm delay attempts =
    Hashtbl.replace t.queries top
      (Engine.timer t.engine ~node:t.node_id ~delay (fun () ->
           let coordinator = Option.value coordinator ~default:(coordinator_of t top) in
           if attempts >= 100 then begin
             Hashtbl.remove t.queries top;
             abandon_resolution t top ~coordinator ~attempts
           end
           else begin
             send_status_query t top ~coordinator;
             if not (Hashtbl.mem t.outcomes top) then arm every (attempts + 1)
           end))
  in
  stop_querying t top;
  arm first 0

(* Runs in a datagram-handler fiber when a Prepare arrives from the
   spanning-tree parent: recursively prepares this node's subtree and
   votes upward. *)
let handle_prepare t top ~src =
  if tracing t then emit t (Prepare_received { node = t.node_id; tid = top; src });
  Engine.charge_cpu t.engine ~process:"tm" Overheads.tm_commit_write;
  let send_vote vote =
    (* Under Paxos Commit a direct child of the root is a root-level
       participant: its vote is also the ballot-0 phase-2a message of
       its own consensus instance, multicast to the acceptors. (Deeper
       subtree nodes have no instance — their live coordinator is this
       node, which aggregates them into its own vote. Read_only is cast
       on the child's behalf by the root, which must decide whether the
       whole tree is read-only first.) For a Yes this runs after the
       prepare record is forced below: a vote must never outlive the
       updates it promises. *)
    (match t.px with
    | Some px when src = top.Tid.node && vote <> Read_only ->
        Paxos.cast_vote px top ~part:t.node_id ~yes:(vote = Yes)
    | _ -> ());
    if tracing t then
      emit t (Vote_sent { node = t.node_id; tid = top; dest = src; vote });
    Comm_mgr.send_datagram t.cm ~dest:src (Tm_vote (top, vote))
  in
  if not (Comm_mgr.involved_remotely t.cm top) then
    (* No record of T: every live participant has one from the session
       frame that brought T here, so this node restarted since then and
       lost T's updates with its volatile state. Presumed abort. *)
    send_vote No
  else
    let children = Comm_mgr.children_of t.cm top in
    let g = prepare_subtree t top ~children ~cast:ignore in
    let wrote = family_wrote_locally t top in
    if g.any_no then begin
      abort_top t top ~children ~reason:(abort_reason g);
      forget t top;
      send_vote No
    end
    else if read_only_tree t g ~wrote then begin
      (* Read-only subtree: release and drop out of phase two. *)
      record_outcome t top Committed;
      notify_local_servers t top Committed;
      forget t top;
      send_vote Read_only
    end
    else begin
      force t (Record.Txn_prepare (top, src));
      Hashtbl.replace t.participants top src;
      if tracing t then
        emit t (Prepared_in_doubt { node = t.node_id; tid = top; coordinator = src });
      (* If the coordinator's verdict never arrives we are blocked in
         doubt; keep asking. The generous first delay keeps queries off
         the wire in healthy runs. *)
      start_querying t top ~coordinator:src ~first:3_000_000 ~every:3_000_000 ();
      send_vote Yes
    end

let apply_decided_outcome t top outcome ~ack_to =
  (* The verdict may reach us in the prepared state (normal phase two),
     or while still active (a coordinator-initiated abort), or again
     (duplicate datagram). Only the first arrival is applied. *)
  let was_in_doubt = Hashtbl.mem t.participants top in
  Hashtbl.remove t.participants top;
  stop_querying t top;
  if Hashtbl.mem t.outcomes top then
    Option.iter
      (fun dest -> Comm_mgr.send_datagram t.cm ~dest (Tm_ack top))
      ack_to
  else begin
      if was_in_doubt && tracing t then
        emit t (In_doubt_resolved { node = t.node_id; tid = top; outcome });
      (match outcome with
      | Committed ->
          if tracing t then
            emit t (Txn_commit { node = t.node_id; tid = top; distributed = true });
          ignore (Recovery_mgr.append_tm_record t.rm (Record.Txn_commit top))
      | Aborted ->
          if tracing t then
            emit t
              (Txn_abort
                 { node = t.node_id; tid = top; reason = Trace.Remote_verdict });
          Hashtbl.replace t.aborted top ();
          if family_wrote_locally t top then undo_family_local t top;
          ignore (Recovery_mgr.append_tm_record t.rm (Record.Txn_abort top)));
      record_outcome t top outcome;
      notify_local_servers t top outcome;
      (* propagate down the tree before acknowledging upward *)
      let children = Comm_mgr.children_of t.cm top in
      let a = new_gather () t.acks top children in
      propagate_outcome t top outcome ~to_nodes:children;
      wait_gather t a;
      Hashtbl.remove t.acks top;
      forget t top;
      Option.iter
        (fun dest -> Comm_mgr.send_datagram t.cm ~dest (Tm_ack top))
        ack_to
  end

(* A verdict arriving from [src]: phase two from the parent, or an
   answer to a status query. *)
let verdict t top outcome ~src ~ack_to =
  if tracing t then
    emit t (Verdict_received { node = t.node_id; tid = top; outcome; src });
  apply_decided_outcome t top outcome ~ack_to

(* A status reply or Paxos decision is accepted for a prepared
   participant (normal in-doubt resolution) or for an undecided orphan
   participant still holding effects of a remote transaction. *)
let resolution t top outcome ~src =
  let orphan =
    (not (Hashtbl.mem t.outcomes top))
    && top.Tid.node <> t.node_id
    && Comm_mgr.involved_remotely t.cm top
  in
  if Hashtbl.mem t.participants top || orphan then
    verdict t top outcome ~src ~ack_to:None

(* In-doubt resolution: a prepared participant that hears nothing asks
   its coordinator. Presumed abort: a coordinator with no record of the
   transaction answers Aborted — but only once it genuinely has no
   record. While the transaction is still live here (running, gathering
   votes, or itself in doubt) we stay silent and let the asker retry;
   answering Aborted for a transaction that may yet commit would split
   the tree's outcome. *)
let locally_live t top =
  Hashtbl.mem t.joined top
  || Hashtbl.mem t.gathers top
  || Hashtbl.mem t.participants top
  || Comm_mgr.involved_remotely t.cm top

let handle_status_query t top ~src =
  (* A restarting coordinator must not answer while recovery is still
     replaying the log: it may be asked about a transaction it decided
     but has not yet re-learned, and "no record" here would become a
     presumed-abort answer that splits from the recorded outcome. Stay
     silent until {!recover} finishes — the asker retries. *)
  if t.ready then
    match Hashtbl.find_opt t.outcomes top with
    | Some o -> Comm_mgr.send_datagram t.cm ~dest:src (Tm_status_reply (top, o))
    | None ->
        if not (locally_live t top) then
          Comm_mgr.send_datagram t.cm ~dest:src (Tm_status_reply (top, Aborted))

(* Public entry points -------------------------------------------------- *)

let commit t tid =
  if is_aborted t tid then Aborted
  else if not (Tid.is_top tid) then begin
    (* Subtransaction commit: locks pass to the parent; durability
       awaits the top-level commit. *)
    small t;
    List.iter
      (fun name -> (callbacks t name).on_subtxn_commit tid)
      (joined_servers t tid);
    small t;
    Committed
  end
  else commit_top t tid ~distributed:(Comm_mgr.involved_remotely t.cm tid)

let abort t ?(reason = Trace.Explicit) tid =
  small t;
  if Tid.is_top tid then begin
    let children = Comm_mgr.children_of t.cm tid in
    abort_top t tid ~children ~reason;
    forget t tid
  end
  else begin
    (* Independent subtransaction abort: undo and release only its
       subtree; the parent continues. *)
    Hashtbl.replace t.aborted tid ();
    let log = Recovery_mgr.log t.rm in
    let members =
      List.filter
        (fun member -> Tid.is_ancestor ~ancestor:tid member)
        (Log_manager.chained_tids_of_family log tid)
    in
    List.iter (fun member -> Recovery_mgr.abort t.rm ~tid:member) members;
    List.iter
      (fun name -> (callbacks t name).on_subtxn_abort tid)
      (joined_servers t tid)
  end

let in_doubt t =
  Hashtbl.fold (fun top _ acc -> top :: acc) t.participants []
  |> List.sort Tid.compare

let outcome_of t tid = Hashtbl.find_opt t.outcomes (Tid.top_level tid)

let recover t (summary : Recovery_mgr.recovery_outcome) =
  List.iter
    (fun (tid, status) ->
      match status with
      | Recovery_mgr.Committed -> Hashtbl.replace t.outcomes tid Committed
      | Recovery_mgr.Aborted -> Hashtbl.replace t.outcomes tid Aborted
      | Recovery_mgr.Prepared _ | Recovery_mgr.Active -> ())
    summary.statuses;
  List.iter
    (fun tid ->
      Hashtbl.replace t.aborted tid ();
      if tracing t then
        emit t (Txn_abort { node = t.node_id; tid; reason = Trace.Crash }))
    summary.losers;
  List.iter
    (fun (tid, coordinator) ->
      Hashtbl.replace t.participants tid coordinator;
      if tracing t then
        emit t (Prepared_in_doubt { node = t.node_id; tid; coordinator });
      start_querying t tid ~coordinator ~first:200_000 ~every:200_000 ())
    summary.in_doubt;
  (* Reinstall surviving Paxos acceptor state (promises, accepts,
     decisions); takeover watchdogs restart for undecided transactions.
     Only now may status queries be answered again. *)
  Option.iter (fun px -> Paxos.reseed px summary.paxos) t.px;
  t.ready <- true

let create engine ~node ~rm ~cm ?(profile = Profile.Classic)
    ?(commit_protocol = Commit_protocol.default)
    ?(read_only_optimization = true) () =
  let t =
    {
      engine;
      node_id = node;
      profile;
      rm;
      cm;
      px = None;
      ready = true;
      resolutions_abandoned = 0;
      read_only_optimization;
      commits_since_checkpoint = 0;
      distributed_commits = 0;
      (* Transaction identifiers must be globally unique across crashes:
         remote nodes keep completed-transaction state keyed by tid, so
         a restarted Transaction Manager must never reissue a pre-crash
         sequence number. Seeding from the virtual clock guarantees it —
         a node issues at most one tid per small-message time (3000 us),
         and a restart always happens at a strictly later virtual time
         than any pre-crash tid issue. *)
      next_seq = Engine.now engine;
      servers = Hashtbl.create 8;
      joined = Hashtbl.create 32;
      sub_counters = Hashtbl.create 16;
      aborted = Hashtbl.create 16;
      outcomes = Hashtbl.create 32;
      gathers = Hashtbl.create 8;
      acks = Hashtbl.create 8;
      participants = Hashtbl.create 8;
      queries = Hashtbl.create 8;
    }
  in
  (* The Paxos role registers its datagram handler (and its
     log-truncation floor) before the TM's own, so a decision is
     recorded for the acceptor/leader state machines before the TM's
     participant handling — which may block gathering acks — sees it. *)
  (match commit_protocol with
  | Commit_protocol.Two_phase -> ()
  | Commit_protocol.Paxos { f } ->
      t.px <- Some (Paxos.create engine ~node ~f ~rm ~cm ()));
  Recovery_mgr.set_active_txns_source rm (fun () -> active_txns t);
  Recovery_mgr.set_prepared_source rm (fun () ->
      Hashtbl.fold (fun top coordinator acc -> (top, coordinator) :: acc)
        t.participants []);
  Comm_mgr.set_remote_involvement_handler cm (fun tid ->
      (* the Communication Manager's first-spread notice to the TM *)
      Metrics.record (Engine.metrics engine) Cost_model.Small_contiguous_message;
      let top = Tid.top_level tid in
      if top.Tid.node <> node && not (Hashtbl.mem t.outcomes top) then
        start_querying t top ~first:10_000_000 ~every:3_000_000 ());
  Comm_mgr.add_datagram_handler cm (fun ~src payload ->
      match payload with
      | Tm_prepare top -> handle_prepare t top ~src
      | Tm_vote (top, v) ->
          if tracing t then
            emit t (Vote_received { node = t.node_id; tid = top; src; vote = v });
          (* Under Paxos Commit a Read_only direct child drops out of
             phase two without casting: the root casts Prepared on its
             behalf so its instance exists — otherwise a takeover would
             choose Aborted for it and split from a root that saw a
             committable tree. *)
          (match t.px with
          | Some px when v = Read_only && top.Tid.node = t.node_id ->
              Paxos.cast_vote px top ~part:src ~yes:true
          | _ -> ());
          gather_note t t.gathers top src v
      | Tm_commit top -> verdict t top Committed ~src ~ack_to:(Some src)
      | Tm_abort top -> verdict t top Aborted ~src ~ack_to:(Some src)
      | Tm_ack top ->
          if tracing t then
            emit t (Ack_received { node = t.node_id; tid = top; src });
          gather_note t t.acks top src Yes
      | Tm_status_query top -> handle_status_query t top ~src
      | Tm_status_reply (top, outcome) -> resolution t top outcome ~src
      | Paxos.Px_decision { tid = top; committed } ->
          (* A Paxos decision reaching a blocked participant (from an
             acceptor answering its status query, or a takeover's
             broadcast). The Paxos module's own handler separately
             records the decision for this node's acceptor/leader
             roles. *)
          resolution t top (if committed then Committed else Aborted) ~src
      | _ -> ());
  t
