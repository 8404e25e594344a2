open Tabs_sim
open Tabs_wal
open Tabs_net
open Tabs_recovery

(* Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"):
   one Paxos consensus instance per root-level participant, whose value
   is that participant's vote (Prepared or Aborted), replicated over
   2F+1 acceptors on nodes 0..2F. The transaction commits iff every
   instance chooses Prepared.

   Fast path (ballot 0): the coordinator is the initial leader. Each
   participant sends its vote directly to all acceptors — the vote IS
   the ballot-0 phase-2a message — and each acceptor reports its accept
   to the coordinator. Once every instance has F+1 Prepared accepts the
   outcome is quorum-durable and the coordinator announces Commit
   without forcing its own commit record: the same 2-message-delay
   critical path as 2PC (prepare out, votes in), with the acceptor
   fan-out riding the Comm Manager's datagram batching.

   Takeover: if the coordinator goes silent, any acceptor runs a
   classic Paxos round at a ballot > 0 over all instances at once —
   phase 1a to the acceptors, F+1 promises (which intersect every
   ballot-0 accept quorum, so any chosen value is discovered), then
   phase 2a proposing the highest-ballot accepted value per instance
   and Aborted for instances with no accepted value. F+1 phase-2b
   accepts decide the transaction, and the decision is broadcast to
   acceptors, participants, and the coordinator.

   Ballot numbering: ballot = (attempt+1)*16 + slot + 1, where slot is
   the acceptor's rank (0..2F <= 12) or 14 for the coordinator — unique
   per proposer and increasing per attempt, so competing takeovers
   never collide. *)

type Trace.event +=
  | Paxos_vote_cast of { node : int; tid : Tid.t; part : int; yes : bool }
  | Paxos_accepted of {
      node : int;
      tid : Tid.t;
      part : int;
      ballot : int;
      yes : bool;
    }
  | Paxos_takeover of { node : int; tid : Tid.t; ballot : int }
  | Paxos_decided of {
      node : int;
      tid : Tid.t;
      committed : bool;
      ballot : int;
    }

type Network.payload +=
  | Px_begin of { tid : Tid.t; parts : int list }
      (* coordinator -> acceptors: instance set announcement *)
  | Px_vote of { tid : Tid.t; part : int; yes : bool }
      (* participant -> acceptors: ballot-0 phase 2a *)
  | Px_accepted0 of { tid : Tid.t; part : int; yes : bool }
      (* acceptor -> coordinator: ballot-0 phase 2b *)
  | Px_prepare_b of { tid : Tid.t; ballot : int } (* takeover phase 1a *)
  | Px_promise of {
      tid : Tid.t;
      ballot : int;
      parts : int list option;
      accepted : (int * int * bool) list; (* part, accepted ballot, yes *)
    } (* phase 1b *)
  | Px_propose of { tid : Tid.t; ballot : int; values : (int * bool) list }
      (* phase 2a, all instances at once *)
  | Px_accepted_b of { tid : Tid.t; ballot : int } (* phase 2b *)
  | Px_decision of { tid : Tid.t; committed : bool }
  | Px_status_query of Tid.t
      (* in-doubt participant -> acceptors; answered with Px_decision
         once one is known *)

(* Acceptor-side state for one transaction. *)
type inst = { mutable abal : int; mutable ayes : bool }

type atxn = {
  a_tid : Tid.t;
  mutable promised : int;
  mutable parts : int list option;
  insts : (int, inst) Hashtbl.t; (* participant node -> accepted value *)
  mutable a_first_lsn : Record.lsn option;
      (* oldest log record backing this state: the log-truncation floor *)
  watchdog : Engine.timer option; (* cancelled when the decision is known *)
}

(* Ballot-0 leader state at the coordinator. *)
type leader = {
  mutable l_parts : int list;
  l_yes : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* instance -> acceptors that reported a Prepared accept *)
  mutable l_no : bool;
  mutable l_decided : bool option; (* a takeover raced us to a decision *)
  l_signal : unit Engine.Waitq.t;
}

(* One in-flight takeover round on this node. *)
type round = {
  mutable r_promises : (int list option * (int * int * bool) list) list;
  mutable r_accepts : int;
  mutable r_phase : int; (* 1 or 2 *)
  r_signal : unit Engine.Waitq.t;
}

type t = {
  engine : Engine.t;
  node : int;
  f : int;
  rm : Recovery_mgr.t;
  cm : Comm_mgr.t;
  acceptors : int list;
  rank : int; (* this node's acceptor rank, or -1 *)
  axns : (Tid.t, atxn) Hashtbl.t;
  decided : (Tid.t, bool) Hashtbl.t;
  leaders : (Tid.t, leader) Hashtbl.t;
  rounds : (Tid.t * int, round) Hashtbl.t;
      (* keyed by (tid, ballot): the coordinator-resolver and this
         node's acceptor watchdog can both run rounds for one tid *)
}

let acceptors t = t.acceptors

let tracing t = Engine.tracing t.engine

let emit t ev = Engine.emit t.engine ev

let quorum t = t.f + 1

(* An undecided transaction's first takeover starts this long after its
   watchdog is armed (plus a second per acceptor rank); a failed round
   backs off [takeover_retry] (plus 0.3 s per slot) before the next. *)
let takeover_base = 2_500_000

let takeover_retry = 1_500_000

let decision_of t tid = Hashtbl.find_opt t.decided tid

(* The truncation floor: oldest log record still backing undecided
   consensus state. Decided transactions drop out when the decision is
   noted. *)
let truncation_floor t =
  Hashtbl.fold
    (fun _ a acc ->
      match (a.a_first_lsn, acc) with
      | None, acc -> acc
      | Some l, None -> Some l
      | Some l, Some m -> Some (min l m))
    t.axns None

let log_forced t a record =
  let lsn = Recovery_mgr.append_tm_record t.rm record in
  if a.a_first_lsn = None then a.a_first_lsn <- Some lsn;
  Recovery_mgr.force_through t.rm lsn

let send t ~dest payload = Comm_mgr.send_datagram t.cm ~dest payload

let broadcast t ~dests payload =
  Comm_mgr.send_datagrams_parallel t.cm ~dests payload

(* Decision handling --------------------------------------------------- *)

(* A decided transaction needs no acceptor state: dropping it releases
   the truncation floor and cancels the takeover watchdog. *)
let drop_atxn t a =
  Option.iter (Engine.cancel t.engine) a.watchdog;
  Hashtbl.remove t.axns a.a_tid

let note_decision t tid ~committed ~ballot =
  if not (Hashtbl.mem t.decided tid) then begin
    Hashtbl.replace t.decided tid committed;
    (match Hashtbl.find_opt t.axns tid with
    | Some a ->
        (* durable enough unforced: if lost, a takeover re-derives the
           same decision from the (forced) accept quorums *)
        ignore
          (Recovery_mgr.append_tm_record t.rm
             (Record.Paxos_decision { tid; committed }));
        drop_atxn t a
    | None -> ());
    if tracing t then
      emit t (Paxos_decided { node = t.node; tid; committed; ballot })
  end;
  (* wake a coordinator fiber still waiting on the fast path *)
  match Hashtbl.find_opt t.leaders tid with
  | Some l ->
      if l.l_decided = None then begin
        l.l_decided <- Some committed;
        ignore (Engine.Waitq.signal l.l_signal ~engine:t.engine ())
      end
  | None -> ()

(* Acceptor ------------------------------------------------------------ *)

let rec ensure_atxn t tid =
  match Hashtbl.find_opt t.axns tid with
  | Some a -> a
  | None ->
      let a =
        {
          a_tid = tid;
          promised = 0;
          parts = None;
          insts = Hashtbl.create 4;
          a_first_lsn = None;
          watchdog = start_watchdog t tid;
        }
      in
      Hashtbl.add t.axns tid a;
      a

(* Coordinator-failure takeover: once a transaction has sat undecided
   past the takeover delay, this acceptor runs ballots until a decision
   is reached. Ranks are staggered so in the common case only the
   first surviving acceptor pays for a round. The timer is cancelled
   when the decision is known. *)
and start_watchdog t tid =
  if t.rank < 0 then None
  else
    Some
      (Engine.timer t.engine ~node:t.node
         ~delay:(takeover_base + (t.rank * 1_000_000))
         (fun () -> ignore (run_takeover t tid ~slot:t.rank)))

(* A full Paxos round over every instance at once, at ballots owned by
   [slot]. Returns the decision; loops (with backoff) until one is
   reached, so the caller blocks exactly when Paxos must: while fewer
   than F+1 acceptors are reachable. *)
and run_takeover t tid ~slot =
  let rec attempt n =
    match decision_of t tid with
    | Some committed -> committed
    | None ->
        let ballot = ((n + 1) * 16) + slot + 1 in
        if tracing t then emit t (Paxos_takeover { node = t.node; tid; ballot });
        let r =
          {
            r_promises = [];
            r_accepts = 0;
            r_phase = 1;
            r_signal = Engine.Waitq.create ();
          }
        in
        Hashtbl.replace t.rounds (tid, ballot) r;
        broadcast t ~dests:t.acceptors (Px_prepare_b { tid; ballot });
        let deadline = Engine.now t.engine + 800_000 in
        let rec wait_phase count_of =
          if count_of r >= quorum t then true
          else
            let remaining = deadline - Engine.now t.engine in
            if remaining <= 0 then false
            else
              match
                Engine.Waitq.wait_timeout r.r_signal ~engine:t.engine
                  ~timeout:remaining
              with
              | Some () -> wait_phase count_of
              | None -> false
        in
        let retry () =
          Hashtbl.remove t.rounds (tid, ballot);
          (* slot-staggered backoff so concurrent proposers (the
             coordinator-resolver plus up to 2F+1 watchdogs) cannot
             duel in lock-step forever *)
          Engine.delay (takeover_retry + (slot * 300_000));
          attempt (n + 1)
        in
        if not (wait_phase (fun r -> List.length r.r_promises)) then retry ()
        else begin
          (* F+1 promises in hand: any ballot-0 quorum intersects them,
             so every chosen value is visible below. *)
          let parts =
            let from_promises =
              List.find_map (fun (p, _) -> p) r.r_promises
            in
            match from_promises with
            | Some p -> Some p
            | None -> (
                match Hashtbl.find_opt t.axns tid with
                | Some a -> a.parts
                | None -> None)
          in
          (* With the participant set unknown, consensus still runs on
             the one instance guaranteed to exist — the coordinator's
             own. If that instance chooses Aborted the transaction can
             never commit (commit needs every instance Prepared), so
             Abort is safe to announce globally. *)
          let insts =
            match parts with Some p -> p | None -> [ tid.Tid.node ]
          in
          let value_of part =
            let best =
              List.fold_left
                (fun acc (_, accepted) ->
                  List.fold_left
                    (fun acc (p, b, yes) ->
                      if p = part then
                        match acc with
                        | Some (b', _) when b' >= b -> acc
                        | _ -> Some (b, yes)
                      else acc)
                    acc accepted)
                None r.r_promises
            in
            match best with Some (_, yes) -> yes | None -> false
          in
          let values = List.map (fun p -> (p, value_of p)) insts in
          r.r_phase <- 2;
          broadcast t ~dests:t.acceptors (Px_propose { tid; ballot; values });
          if not (wait_phase (fun r -> r.r_accepts)) then retry ()
          else begin
            Hashtbl.remove t.rounds (tid, ballot);
            let all_yes = List.for_all snd values in
            match (parts, all_yes) with
            | Some _, committed ->
                announce_decision t tid ~committed ~ballot
                  ~also:(Option.value parts ~default:[]);
                committed
            | None, false ->
                announce_decision t tid ~committed:false ~ballot ~also:[];
                false
            | None, true ->
                (* coordinator voted Prepared but no acceptor knows the
                   instance set yet: the ballot-0 leader announces it
                   again (every acceptor may have lost the first
                   announcement), then retry until one does *)
                (match Hashtbl.find_opt t.leaders tid with
                | Some l ->
                    broadcast t ~dests:t.acceptors
                      (Px_begin { tid; parts = l.l_parts })
                | None -> ());
                Engine.delay (takeover_retry + (slot * 300_000));
                attempt (n + 1)
          end
        end
  in
  attempt 0

(* Record the decision locally and tell everyone who may be blocked on
   it: the acceptors (so status queries are answerable), the
   participants, and the coordinator node. *)
and announce_decision t tid ~committed ~ballot ~also =
  note_decision t tid ~committed ~ballot;
  let dests =
    List.sort_uniq compare ((tid.Tid.node :: t.acceptors) @ also)
    |> List.filter (fun n -> n <> t.node)
  in
  broadcast t ~dests (Px_decision { tid; committed })

(* Message handling ---------------------------------------------------- *)

let handle_begin t tid ~parts =
  if not (Hashtbl.mem t.decided tid) then begin
    let a = ensure_atxn t tid in
    if a.parts = None then a.parts <- Some parts
  end

let inst_of a part =
  match Hashtbl.find_opt a.insts part with
  | Some i -> i
  | None ->
      let i = { abal = -1; ayes = false } in
      Hashtbl.add a.insts part i;
      i

let accept_value t a tid ~part ~ballot ~yes =
  let i = inst_of a part in
  i.abal <- ballot;
  i.ayes <- yes;
  log_forced t a (Record.Paxos_accept { tid; part; ballot; yes });
  if tracing t then
    emit t (Paxos_accepted { node = t.node; tid; part; ballot; yes })

let handle_vote t tid ~part ~yes =
  if not (Hashtbl.mem t.decided tid) then begin
    let a = ensure_atxn t tid in
    (* a ballot-0 accept is allowed only before any promise *)
    let fresh =
      match Hashtbl.find_opt a.insts part with
      | Some i -> i.abal < 0
      | None -> true
    in
    if a.promised = 0 && fresh then begin
      accept_value t a tid ~part ~ballot:0 ~yes;
      send t ~dest:tid.Tid.node (Px_accepted0 { tid; part; yes })
    end
  end
  else
    (* a late vote for a decided transaction: the voter is (or will be)
       blocked on the verdict — answer it directly *)
    send t ~dest:part
      (Px_decision { tid; committed = Hashtbl.find t.decided tid })

let handle_prepare_ballot t tid ~ballot ~src =
  match Hashtbl.find_opt t.decided tid with
  | Some committed ->
      (* already decided: don't resurrect acceptor state for a new
         ballot, short-circuit the proposer instead *)
      send t ~dest:src (Px_decision { tid; committed })
  | None ->
  let a = ensure_atxn t tid in
  if ballot > a.promised then begin
    a.promised <- ballot;
    log_forced t a (Record.Paxos_promise { tid; ballot });
    let accepted =
      Hashtbl.fold
        (fun part i acc ->
          if i.abal >= 0 then (part, i.abal, i.ayes) :: acc else acc)
        a.insts []
    in
    send t ~dest:src (Px_promise { tid; ballot; parts = a.parts; accepted })
  end

let handle_propose t tid ~ballot ~values ~src =
  match Hashtbl.find_opt t.decided tid with
  | Some committed -> send t ~dest:src (Px_decision { tid; committed })
  | None ->
  let a = ensure_atxn t tid in
  if ballot >= a.promised then begin
    a.promised <- ballot;
    if a.parts = None && List.length values > 1 then
      a.parts <- Some (List.map fst values);
    List.iter (fun (part, yes) -> accept_value t a tid ~part ~ballot ~yes) values;
    send t ~dest:src (Px_accepted_b { tid; ballot })
  end

let handle_promise t tid ~ballot ~parts ~accepted =
  match Hashtbl.find_opt t.rounds (tid, ballot) with
  | Some r when r.r_phase = 1 ->
      r.r_promises <- (parts, accepted) :: r.r_promises;
      if List.length r.r_promises >= quorum t then
        ignore (Engine.Waitq.signal r.r_signal ~engine:t.engine ())
  | _ -> ()

let handle_accepted_b t tid ~ballot =
  match Hashtbl.find_opt t.rounds (tid, ballot) with
  | Some r when r.r_phase = 2 ->
      r.r_accepts <- r.r_accepts + 1;
      if r.r_accepts >= quorum t then
        ignore (Engine.Waitq.signal r.r_signal ~engine:t.engine ())
  | _ -> ()

let quorum_reached t l =
  l.l_parts <> []
  && List.for_all
       (fun p ->
         match Hashtbl.find_opt l.l_yes p with
         | Some set -> Hashtbl.length set >= quorum t
         | None -> false)
       l.l_parts

let handle_accepted0 t tid ~part ~yes ~src =
  match Hashtbl.find_opt t.leaders tid with
  | None -> ()
  | Some l ->
      if yes then begin
        let set =
          match Hashtbl.find_opt l.l_yes part with
          | Some s -> s
          | None ->
              let s = Hashtbl.create 4 in
              Hashtbl.add l.l_yes part s;
              s
        in
        Hashtbl.replace set src ()
      end
      else l.l_no <- true;
      if l.l_no || quorum_reached t l then
        ignore (Engine.Waitq.signal l.l_signal ~engine:t.engine ())

let handle_status_query t tid ~src =
  match decision_of t tid with
  | Some committed -> send t ~dest:src (Px_decision { tid; committed })
  | None ->
      (* stay silent but make sure a takeover is pending: the querier is
         a blocked in-doubt participant *)
      ignore (ensure_atxn t tid)

(* Coordinator (ballot-0 leader) API ----------------------------------- *)

let begin_leader t tid ~parts =
  let l =
    {
      l_parts = parts;
      l_yes = Hashtbl.create 4;
      l_no = false;
      l_decided = None;
      l_signal = Engine.Waitq.create ();
    }
  in
  Hashtbl.replace t.leaders tid l;
  broadcast t ~dests:t.acceptors (Px_begin { tid; parts })

let end_leader t tid = Hashtbl.remove t.leaders tid

let cast_vote t tid ~part ~yes =
  if tracing t then emit t (Paxos_vote_cast { node = t.node; tid; part; yes });
  broadcast t ~dests:t.acceptors (Px_vote { tid; part; yes })

let await_quorum t tid ~timeout =
  match Hashtbl.find_opt t.leaders tid with
  | None -> `Timeout
  | Some l ->
      let deadline = Engine.now t.engine + timeout in
      let rec wait () =
        match l.l_decided with
        | Some committed -> `Decided committed
        | None ->
            if l.l_no then `Abort
            else if quorum_reached t l then `Commit
            else
              let remaining = deadline - Engine.now t.engine in
              if remaining <= 0 then `Timeout
              else
                match
                  Engine.Waitq.wait_timeout l.l_signal ~engine:t.engine
                    ~timeout:remaining
                with
                | Some () -> wait ()
                | None -> `Timeout
      in
      wait ()

(* The coordinator announcing its fast-path decision. No log force is
   needed first: each instance's F+1 accepts are already stable at the
   acceptors, and any takeover quorum intersects them. *)
let announce t tid ~committed =
  note_decision t tid ~committed ~ballot:0;
  let dests = List.filter (fun n -> n <> t.node) t.acceptors in
  broadcast t ~dests (Px_decision { tid; committed })

(* A blocked coordinator resolving through consensus (vote timeout with
   silent participants: presumed abort must not be unilateral, because a
   silent participant's Prepared vote may already sit in an acceptor
   quorum). Slot 14 keeps its ballots disjoint from every acceptor's. *)
let resolve_as_coordinator t tid = run_takeover t tid ~slot:14

(* Restart ------------------------------------------------------------- *)

let reseed t records =
  List.iter
    (fun (lsn, record) ->
      match record with
      | Record.Paxos_promise { tid; ballot } ->
          let a = ensure_atxn t tid in
          if ballot > a.promised then a.promised <- ballot;
          if a.a_first_lsn = None then a.a_first_lsn <- Some lsn
      | Record.Paxos_accept { tid; part; ballot; yes } ->
          let a = ensure_atxn t tid in
          let i = inst_of a part in
          if ballot > i.abal then begin
            i.abal <- ballot;
            i.ayes <- yes
          end;
          if a.promised < ballot then a.promised <- ballot;
          if a.a_first_lsn = None then a.a_first_lsn <- Some lsn
      | Record.Paxos_decision { tid; committed } ->
          Hashtbl.replace t.decided tid committed;
          Option.iter (drop_atxn t) (Hashtbl.find_opt t.axns tid)
      | _ -> ())
    records

let create engine ~node ~f ~rm ~cm () =
  let acceptors = List.init ((2 * f) + 1) Fun.id in
  let rank = if node <= 2 * f then node else -1 in
  let t =
    {
      engine;
      node;
      f;
      rm;
      cm;
      acceptors;
      rank;
      axns = Hashtbl.create 16;
      decided = Hashtbl.create 32;
      leaders = Hashtbl.create 8;
      rounds = Hashtbl.create 4;
    }
  in
  Recovery_mgr.set_truncation_floor_source rm (fun () -> truncation_floor t);
  Comm_mgr.add_datagram_handler cm (fun ~src payload ->
      match payload with
      | Px_begin { tid; parts } -> handle_begin t tid ~parts
      | Px_vote { tid; part; yes } -> handle_vote t tid ~part ~yes
      | Px_accepted0 { tid; part; yes } -> handle_accepted0 t tid ~part ~yes ~src
      | Px_prepare_b { tid; ballot } -> handle_prepare_ballot t tid ~ballot ~src
      | Px_promise { tid; ballot; parts; accepted } ->
          handle_promise t tid ~ballot ~parts ~accepted
      | Px_propose { tid; ballot; values } ->
          handle_propose t tid ~ballot ~values ~src
      | Px_accepted_b { tid; ballot } -> handle_accepted_b t tid ~ballot
      | Px_decision { tid; committed } ->
          note_decision t tid ~committed ~ballot:(-1)
      | Px_status_query tid -> handle_status_query t tid ~src
      | _ -> ());
  t
