open Tabs_sim
open Tabs_accent
open Tabs_wal

let default = 500_000

(* Dirty pages written back per cycle. *)
let trickle = 8

type Trace.event +=
  | Rm_writeback of { node : int; pages : int; oldest_rec_lsn : int }
  | Rm_reclaimed of { node : int; keep_from : Record.lsn; records : int }

(* The daemon parks on [wake_q] between cycles so the simulation can
   quiesce; forward processing pokes it (setting [pending] first, so a
   poke landing mid-cycle is never lost — Waitq signals with no waiter
   evaporate). *)
type t = {
  engine : Engine.t;
  node : int;
  vm : Vm.t;
  interval : int;
  checkpoint_and_truncate : unit -> Record.lsn * int;
      (* the Recovery Manager's fuzzy checkpoint and log truncation,
         passed as a closure because the Recovery Manager owns this
         daemon *)
  gate : unit -> bool;
      (* cycles are skipped while this is false. Restart recovery holds
         it: after [Log_manager.attach] the chain table is empty until
         recovery restores it, so a cycle fired in that window would
         compute no chain floor and truncate in-doubt undo chains — and
         its checkpoint record would omit the prepared set. *)
  wake_q : unit Engine.Waitq.t;
  mutable pending : bool;
  mutable last_cycle : int;
  mutable cycles : int;
  mutable pages_written : int;
  mutable reclaimed : int; (* log records truncated away *)
}

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* One background cycle: trickle the oldest dirty pages out (raising the
   truncation floor the most per write), take a fuzzy checkpoint, and
   reclaim every record no live chain or dirty page still needs. *)
let cycle t =
  t.last_cycle <- Engine.now t.engine;
  t.cycles <- t.cycles + 1;
  let by_rec_lsn =
    List.sort (fun (_, a) (_, b) -> compare a b) (Vm.dirty_pages t.vm)
  in
  (match by_rec_lsn with
  | [] -> ()
  | (_, oldest_rec_lsn) :: _ ->
      let victims = take trickle by_rec_lsn in
      List.iter (fun (pid, _) -> Vm.flush_page t.vm pid) victims;
      t.pages_written <- t.pages_written + List.length victims;
      if Engine.tracing t.engine then
        Engine.emit t.engine
          (Rm_writeback
             { node = t.node; pages = List.length victims; oldest_rec_lsn }));
  let keep_from, reclaimed = t.checkpoint_and_truncate () in
  if reclaimed > 0 then begin
    t.reclaimed <- t.reclaimed + reclaimed;
    if Engine.tracing t.engine then
      Engine.emit t.engine
        (Rm_reclaimed { node = t.node; keep_from; records = reclaimed })
  end

let rec daemon t =
  if not t.pending then Engine.Waitq.wait t.wake_q;
  t.pending <- false;
  if t.gate () then cycle t;
  daemon t

let create engine ~node ~vm ~checkpoint_and_truncate ~gate ~interval =
  let t =
    {
      engine;
      node;
      vm;
      interval;
      checkpoint_and_truncate;
      gate;
      wake_q = Engine.Waitq.create ();
      pending = false;
      last_cycle = 0;
      cycles = 0;
      pages_written = 0;
      reclaimed = 0;
    }
  in
  ignore (Engine.spawn engine ~node (fun () -> daemon t));
  t

let request t =
  if not t.pending then begin
    t.pending <- true;
    ignore (Engine.Waitq.signal t.wake_q ~engine:t.engine ())
  end

let poke t =
  if
    (not t.pending)
    && Engine.now t.engine - t.last_cycle >= t.interval
  then request t

let cycles t = t.cycles

let pages_written t = t.pages_written

let reclaimed t = t.reclaimed
