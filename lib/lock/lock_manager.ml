open Tabs_sim
open Tabs_wal

type outcome = Granted | Timed_out

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
  w_since : int; (* virtual time the wait began *)
  w_queue : outcome Engine.Waitq.t;
  mutable w_cancelled : bool;
}

(* Waiters queue FIFO. A timed-out waiter is only marked cancelled —
   O(1) — and its carcass is dropped when it reaches the front of the
   queue, instead of filtering the whole queue on every cancellation or
   release. [live] counts the non-cancelled waiters so the conditional
   path and statistics never need a scan either. An entry leaves the
   table once it has no holds and no live waiter, carcasses and all. *)
type entry = {
  key : Object_id.t;
  mutable holds : (Tid.t * Mode.t list) list;
  waiters : waiter Queue.t;
  mutable live : int;
}

module Table = Hashtbl.Make (Object_id)

let same_family (a : Tid.t) (b : Tid.t) = a.node = b.node && a.seq = b.seq

(* Keyed by family: any member of a family finds its slot. *)
module Family = Hashtbl.Make (struct
  type t = Tid.t
  let equal = same_family
  let hash (t : Tid.t) = Hashtbl.hash t.seq + (t.node * 65599)
end)

type t = {
  engine : Engine.t;
  compatible : Mode.compat;
  table : entry Table.t;
  families : entry list Family.t; (* what each family holds, see [family] *)
  mutable timeout_count : int;
}

(* The deadlock time-out of a request that names none. *)
let default_timeout = 2_000_000

let create ?(compatible = Mode.standard) engine () =
  {
    engine;
    compatible;
    table = Table.create 64;
    families = Family.create 64;
    timeout_count = 0;
  }

let entry t key =
  match Table.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { key; holds = []; waiters = Queue.create (); live = 0 } in
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

(* The entries [tid]'s family holds, the most recently filed first. *)
let family t tid = Option.value (Family.find_opt t.families tid) ~default:[]

(* [tid] gains [mode] on [entry]. The first hold of [tid]'s family on
   the entry files it under the family: the one place the index grows,
   and the membership test is the scan of the entry's own holds. *)
let add_hold t entry tid mode =
  let rec go fresh = function
    | [] ->
        if fresh then Family.replace t.families tid (entry :: family t tid);
        [ (tid, [ mode ]) ]
    | (holder, modes) :: rest when Tid.equal holder tid ->
        let modes =
          if List.exists (Mode.equal mode) modes then modes else mode :: modes
        in
        (holder, modes) :: rest
    | ((holder, _) as pair) :: rest ->
        pair :: go (fresh && not (same_family holder tid)) rest
  in
  entry.holds <- go true entry.holds

let forget_if_idle t entry =
  if entry.holds = [] && entry.live = 0 then Table.remove t.table entry.key

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
            add_hold t entry w.w_tid w.w_mode;
            if Engine.tracing t.engine then
              Engine.emit t.engine
                (Lock_granted
                   {
                     tid = w.w_tid;
                     obj = entry.key;
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
    add_hold t e tid mode;
    true
  end
  else false

let lock t tid key mode ?timeout () =
  if try_lock t tid key mode then Granted
  else begin
    let e = entry t key in
    let w =
      {
        w_tid = tid;
        w_mode = mode;
        w_since = Engine.now t.engine;
        w_queue = Engine.Waitq.create ();
        w_cancelled = false;
      }
    in
    Queue.push w e.waiters;
    e.live <- e.live + 1;
    if Engine.tracing t.engine then
      Engine.emit t.engine (Lock_wait { tid; obj = key; mode });
    let timeout = Option.value timeout ~default:default_timeout in
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
        forget_if_idle t e;
        Timed_out
  end

let is_locked t key =
  match Table.find_opt t.table key with
  | None -> false
  | Some e -> e.holds <> []

let held_by t tid =
  List.filter_map
    (fun e -> if List.mem_assoc tid e.holds then Some e.key else None)
    (family t tid)

(* The one walk behind every unlock: over the entries [tid]'s family
   holds, drop each hold whose holder satisfies [drop], passing its modes
   to [heir] if any (a subtransaction's commit), then grant the entry's
   admissible waiters (a sibling queued behind a committing child may now
   be one). The family keeps the entries it still holds, behind any that
   a waiter of the family granted here re-filed through [add_hold]. *)
let release t tid ~drop ~heir =
  let walked = family t tid in
  Family.remove t.families tid;
  let kept =
    List.filter
      (fun e ->
        (not (List.exists (fun (h, _) -> drop h) e.holds))
        || begin
             Option.iter
               (fun p ->
                 List.iter
                   (fun (h, ms) -> if drop h then List.iter (add_hold t e p) ms)
                   e.holds)
               heir;
             e.holds <- List.filter (fun (h, _) -> not (drop h)) e.holds;
             let held = List.exists (fun (h, _) -> same_family h tid) e.holds in
             grant_waiters t e;
             forget_if_idle t e;
             held
           end)
      walked
  in
  match family t tid @ kept with
  | [] -> ()
  | keys -> Family.replace t.families tid keys

let release_all t tid = release t tid ~drop:(Tid.equal tid) ~heir:None

let release_subtree t root =
  release t root ~drop:(fun h -> Tid.is_ancestor ~ancestor:root h) ~heir:None

let release_family t top = release t top ~drop:(same_family top) ~heir:None

let transfer_to_parent t tid =
  match Tid.parent tid with
  | None -> invalid_arg "Lock_manager.transfer_to_parent: top-level tid"
  | Some parent -> release t tid ~drop:(Tid.equal tid) ~heir:(Some parent)

let total_holds t =
  Table.fold (fun _ e acc -> acc + List.length e.holds) t.table 0

let waiting t = Table.fold (fun _ e acc -> acc + e.live) t.table 0

let entries t = Table.length t.table

let timeouts t = t.timeout_count
