open Tabs_sim
open Tabs_wal

type outcome = Granted | Timed_out | Deadlocked

type Trace.event +=
  | Lock_wait of { tid : Tid.t; obj : Object_id.t; mode : Mode.t }
  | Lock_granted of {
      tid : Tid.t;
      obj : Object_id.t;
      mode : Mode.t;
      waited : int; (* microseconds of virtual time spent queued; 0 if
                       granted immediately *)
    }
  | Lock_timed_out of {
      tid : Tid.t;
      obj : Object_id.t;
      mode : Mode.t;
      waited : int;
    }

type waiter = {
  w_tid : Tid.t;
  w_mode : Mode.t;
  w_key : Object_id.t;
  w_since : int; (* virtual time the wait began *)
  w_queue : outcome Engine.Waitq.t;
  mutable w_cancelled : bool;
}

(* Waiters queue FIFO. A timed-out waiter is only marked cancelled —
   O(1) — and its carcass is dropped when it reaches the front of the
   queue, instead of filtering the whole queue on every cancellation or
   release. [live] counts the non-cancelled waiters so the conditional
   path and statistics never need a scan either. *)
type entry = {
  mutable holds : (Tid.t * Mode.t list) list;
  waiters : waiter Queue.t;
  mutable live : int;
}

module Key = struct
  type t = Object_id.t

  let equal = Object_id.equal

  let hash = Object_id.hash
end

module Table = Hashtbl.Make (Key)

type t = {
  engine : Engine.t;
  compatible : Mode.compat;
  default_timeout : int;
  detect_deadlocks : bool;
  table : entry Table.t;
  mutable timeout_count : int;
  mutable deadlock_count : int;
}

let create ?(compatible = Mode.standard) ?(default_timeout = 10_000_000)
    ?(detect_deadlocks = false) engine () =
  {
    engine;
    compatible;
    default_timeout;
    detect_deadlocks;
    table = Table.create 64;
    timeout_count = 0;
    deadlock_count = 0;
  }

let entry t key =
  match Table.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { holds = []; waiters = Queue.create (); live = 0 } in
      Table.add t.table key e;
      e

(* A request by [tid] in [mode] is admissible when every conflicting
   holder is [tid] itself or one of its ancestors. *)
let admissible t entry tid mode =
  List.for_all
    (fun (holder, modes) ->
      Tid.equal holder tid
      || Tid.is_ancestor ~ancestor:holder tid
      || List.for_all (fun m -> t.compatible m mode) modes)
    entry.holds

let add_hold entry tid mode =
  let rec go = function
    | [] -> [ (tid, [ mode ]) ]
    | (holder, modes) :: rest when Tid.equal holder tid ->
        let modes =
          if List.exists (Mode.equal mode) modes then modes else mode :: modes
        in
        (holder, modes) :: rest
    | pair :: rest -> pair :: go rest
  in
  entry.holds <- go entry.holds

(* Grant waiters from the front of the FIFO while admissible; stop at the
   first live blocked waiter to avoid starvation. Cancelled carcasses
   reaching the front are discarded here — their [live] decrement already
   happened when they cancelled. *)
let grant_waiters t entry =
  let rec go () =
    match Queue.peek_opt entry.waiters with
    | None -> ()
    | Some w when w.w_cancelled ->
        ignore (Queue.pop entry.waiters);
        go ()
    | Some w ->
        if admissible t entry w.w_tid w.w_mode then begin
          ignore (Queue.pop entry.waiters);
          (* A waiter whose timeout fired at this same instant has already
             been woken with None and will report [Timed_out]; [signal]
             skips it and returns false. Granting it anyway would leave a
             hold the requester never learns about, so the hold is added
             only when the wake actually lands. (The skipped waiter's
             [live] decrement happens in its own timeout branch.) *)
          if Engine.Waitq.signal w.w_queue ~engine:t.engine Granted then begin
            entry.live <- entry.live - 1;
            add_hold entry w.w_tid w.w_mode;
            if Engine.tracing t.engine then
              Engine.emit t.engine
                (Lock_granted
                   {
                     tid = w.w_tid;
                     obj = w.w_key;
                     mode = w.w_mode;
                     waited = Engine.now t.engine - w.w_since;
                   })
          end;
          go ()
        end
  in
  go ()

let try_lock t tid key mode =
  let e = entry t key in
  (* Strict FIFO: a conditional request defers to queued live waiters;
     cancelled ghosts (live excluded) cannot refuse it. *)
  if e.live = 0 && admissible t e tid mode then begin
    add_hold e tid mode;
    true
  end
  else false

(* Waits-for-graph deadlock detection: [tid] is about to wait on the
   holders of [key]; refuse if some chain of waiting leads back to
   [tid]. The graph is read off the lock table: a transaction waits for
   the conflicting holders of the keys it is queued on. Top-level
   identities are used so a subtransaction waiting on its sibling's
   holder counts as the family waiting (intra-transaction deadlock is
   still reported, as the paper warns it can occur). *)
let would_deadlock t tid key mode =
  let roots_of_holders entry requester req_mode =
    List.filter_map
      (fun (holder, modes) ->
        if
          Tid.equal holder requester
          || Tid.is_ancestor ~ancestor:holder requester
          || List.for_all (fun m -> t.compatible m req_mode) modes
        then None
        else Some holder)
      entry.holds
  in
  (* edges from every queued waiter *)
  let edges = Hashtbl.create 16 in
  let add_edge a b = Hashtbl.add edges a b in
  Table.iter
    (fun _ e ->
      Queue.iter
        (fun w ->
          if not w.w_cancelled then
            List.iter (add_edge w.w_tid) (roots_of_holders e w.w_tid w.w_mode))
        e.waiters)
    t.table;
  (* plus the hypothetical edge set of the new request *)
  let entry0 = entry t key in
  let first_hops = roots_of_holders entry0 tid mode in
  let visited = Hashtbl.create 16 in
  let rec reaches_requester node =
    Tid.equal node tid
    || Tid.is_ancestor ~ancestor:node tid
    || Tid.is_ancestor ~ancestor:tid node
    ||
    if Hashtbl.mem visited node then false
    else begin
      Hashtbl.add visited node ();
      List.exists reaches_requester (Hashtbl.find_all edges node)
    end
  in
  List.exists reaches_requester first_hops

let lock t tid key mode ?timeout () =
  if try_lock t tid key mode then Granted
  else if t.detect_deadlocks && would_deadlock t tid key mode then begin
    t.deadlock_count <- t.deadlock_count + 1;
    Deadlocked
  end
  else begin
    let e = entry t key in
    let w =
      {
        w_tid = tid;
        w_mode = mode;
        w_key = key;
        w_since = Engine.now t.engine;
        w_queue = Engine.Waitq.create ();
        w_cancelled = false;
      }
    in
    Queue.push w e.waiters;
    e.live <- e.live + 1;
    if Engine.tracing t.engine then
      Engine.emit t.engine (Lock_wait { tid; obj = key; mode });
    let timeout =
      match timeout with Some micros -> micros | None -> t.default_timeout
    in
    match Engine.Waitq.wait_timeout w.w_queue ~engine:t.engine ~timeout with
    | Some outcome -> outcome
    | None ->
        (* Cancel in place; the carcass is dropped when it reaches the
           queue front. *)
        w.w_cancelled <- true;
        e.live <- e.live - 1;
        t.timeout_count <- t.timeout_count + 1;
        if Engine.tracing t.engine then
          Engine.emit t.engine
            (Lock_timed_out
               { tid; obj = key; mode; waited = Engine.now t.engine - w.w_since });
        (* The cancelled waiter may have been blocking others. *)
        grant_waiters t e;
        Timed_out
  end

let is_locked t key =
  match Table.find_opt t.table key with
  | None -> false
  | Some e -> e.holds <> []

let held_by t tid =
  Table.fold
    (fun key e acc ->
      if List.exists (fun (h, _) -> Tid.equal h tid) e.holds then key :: acc
      else acc)
    t.table []

let release_all t tid =
  Table.iter
    (fun _ e ->
      let before = List.length e.holds in
      e.holds <- List.filter (fun (h, _) -> not (Tid.equal h tid)) e.holds;
      if List.length e.holds <> before then grant_waiters t e)
    t.table

let release_subtree t root =
  let in_subtree (h, _) = Tid.is_ancestor ~ancestor:root h in
  Table.iter
    (fun _ e ->
      let before = List.length e.holds in
      e.holds <- List.filter (fun hold -> not (in_subtree hold)) e.holds;
      if List.length e.holds <> before then grant_waiters t e)
    t.table

let release_family t top = release_subtree t (Tid.top_level top)

let transfer_to_parent t tid =
  match Tid.parent tid with
  | None -> invalid_arg "Lock_manager.transfer_to_parent: top-level tid"
  | Some parent ->
      Table.iter
        (fun _ e ->
          match List.find_opt (fun (h, _) -> Tid.equal h tid) e.holds with
          | None -> ()
          | Some (_, modes) ->
              e.holds <-
                List.filter (fun (h, _) -> not (Tid.equal h tid)) e.holds;
              List.iter (fun m -> add_hold e parent m) modes)
        t.table

let total_holds t =
  Table.fold (fun _ e acc -> acc + List.length e.holds) t.table 0

let waiting t = Table.fold (fun _ e acc -> acc + e.live) t.table 0

let timeouts t = t.timeout_count

let deadlocks_detected t = t.deadlock_count
