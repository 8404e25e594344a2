(* Reference model of Tabs_lock.Lock_manager: the lock table with no
   index and no entry removal, every unlock a scan of the whole table.
   It is the specification the indexed manager is checked against in
   test_lock.ml's model property; tracing is left out.

   One unlock can grant waiters on several keys, and the order of those
   grants is the order their fibers run in. The specification fixes it:
   an unlock visits its family's keys newest first, by the time the
   family last went from holding nothing on the key to holding it
   ([filed] stamps), as the manager's index lists them. *)

open Tabs_sim
open Tabs_wal
open Tabs_lock

type waiter = {
  w_tid : Tid.t;
  w_mode : Mode.t;
  w_queue : Lock_manager.outcome Engine.Waitq.t;
  mutable w_cancelled : bool;
}

type entry = {
  mutable holds : (Tid.t * Mode.t list) list;
  mutable filed : (Tid.t * int) list; (* top-level tid, stamp *)
  waiters : waiter Queue.t;
  mutable live : int;
}

type t = {
  engine : Engine.t;
  table : (Object_id.t, entry) Hashtbl.t;
  mutable stamp : int;
}

let create engine = { engine; table = Hashtbl.create 16; stamp = 0 }

let entry t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { holds = []; filed = []; waiters = Queue.create (); live = 0 } in
      Hashtbl.add t.table key e;
      e

let admissible entry tid mode =
  List.for_all
    (fun (holder, modes) ->
      Tid.equal holder tid
      || Tid.is_ancestor ~ancestor:holder tid
      || List.for_all (fun m -> Mode.standard m mode) modes)
    entry.holds

let family_holds entry tid =
  List.exists (fun (h, _) -> Tid.equal (Tid.top_level h) (Tid.top_level tid)) entry.holds

let add_hold t entry tid mode =
  if not (family_holds entry tid) then begin
    t.stamp <- t.stamp + 1;
    entry.filed <- (Tid.top_level tid, t.stamp) :: entry.filed
  end;
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

let grant_waiters t entry =
  let rec go () =
    match Queue.peek_opt entry.waiters with
    | None -> ()
    | Some w when w.w_cancelled ->
        ignore (Queue.pop entry.waiters);
        go ()
    | Some w ->
        if admissible entry w.w_tid w.w_mode then begin
          ignore (Queue.pop entry.waiters);
          if Engine.Waitq.signal w.w_queue ~engine:t.engine Lock_manager.Granted
          then begin
            entry.live <- entry.live - 1;
            add_hold t entry w.w_tid w.w_mode
          end;
          go ()
        end
  in
  go ()

let try_lock t tid key mode =
  let e = entry t key in
  if e.live = 0 && admissible e tid mode then begin
    add_hold t e tid mode;
    true
  end
  else false

let lock t tid key mode ~timeout =
  if try_lock t tid key mode then Lock_manager.Granted
  else begin
    let e = entry t key in
    let w =
      {
        w_tid = tid;
        w_mode = mode;
        w_queue = Engine.Waitq.create ();
        w_cancelled = false;
      }
    in
    Queue.push w e.waiters;
    e.live <- e.live + 1;
    match Engine.Waitq.wait_timeout w.w_queue ~engine:t.engine ~timeout with
    | Some outcome -> outcome
    | None ->
        w.w_cancelled <- true;
        e.live <- e.live - 1;
        grant_waiters t e;
        Lock_manager.Timed_out
  end

let is_locked t key =
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some e -> e.holds <> []

let held_by t tid =
  Hashtbl.fold
    (fun key e acc ->
      if List.exists (fun (h, _) -> Tid.equal h tid) e.holds then key :: acc
      else acc)
    t.table []

(* Every entry [tid]'s family is filed under, newest first. *)
let family_entries t tid =
  let top = Tid.top_level tid in
  Hashtbl.fold
    (fun _ e acc ->
      match List.assoc_opt top e.filed with
      | Some stamp -> (stamp, e) :: acc
      | None -> acc)
    t.table []
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.map snd

let unfile_if_gone e tid =
  if not (family_holds e tid) then
    e.filed <- List.remove_assoc (Tid.top_level tid) e.filed

let release_matching t tid drop =
  List.iter
    (fun e ->
      let before = List.length e.holds in
      e.holds <- List.filter (fun (h, _) -> not (drop h)) e.holds;
      unfile_if_gone e tid;
      if List.length e.holds <> before then grant_waiters t e)
    (family_entries t tid)

let release_all t tid = release_matching t tid (Tid.equal tid)

let release_subtree t root =
  release_matching t root (fun h -> Tid.is_ancestor ~ancestor:root h)

let release_family t top = release_subtree t (Tid.top_level top)

(* The parent takes the modes before the child's hold goes, so the
   family never stops holding the key; then the entry grants the waiters
   the parent's holds admit, such as a sibling queued behind the child. *)
let transfer_to_parent t tid =
  let parent = Option.get (Tid.parent tid) in
  List.iter
    (fun e ->
      match List.find_opt (fun (h, _) -> Tid.equal h tid) e.holds with
      | None -> ()
      | Some (_, modes) ->
          List.iter (fun m -> add_hold t e parent m) modes;
          e.holds <- List.filter (fun (h, _) -> not (Tid.equal h tid)) e.holds;
          grant_waiters t e)
    (family_entries t tid)

let total_holds t =
  Hashtbl.fold (fun _ e acc -> acc + List.length e.holds) t.table 0

let waiting t = Hashtbl.fold (fun _ e acc -> acc + e.live) t.table 0
