(* Reference crash recovery for the equivalence tests: the paper's
   serial passes in their plainest form, written against the public
   Log_manager / Vm / Disk APIs only and sharing no code with
   Recovery_mgr or its redo graph.

   - a full scan of the live log resolves each top-level transaction's
     fate (no checkpoint anchoring, no status seeding);
   - operation redo runs forward, gated on sector sequence numbers;
   - one backward value pass restores images, a finalized set marking
     objects whose newest winner has been seen;
   - loser operation undo runs backward.

   [run] recovers a private copy of a crashed node's disk and stable
   log and reports the losers, the in-doubt set, and the application
   sequence in the shape {!Tabs_recovery.Recovery_mgr.set_apply_hook}
   reports it — so any schedule of the redo graph that drifts from the
   serial order, undo included, shows up as a sequence mismatch. *)

open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_accent

type status = Committed | Aborted | Prepared of int | Active

type outcome = {
  losers : Tid.t list;
  in_doubt : (Tid.t * int) list;
  applied : (string * Record.lsn) list;
}

let replay log vm handler =
  let records = ref [] in
  Log_manager.iter_forward log ~from:(Log_manager.first_lsn log)
    ~f:(fun lsn record -> records := (lsn, record) :: !records);
  let backward = !records in
  let forward = List.rev backward in
  let status = Hashtbl.create 64 and aborted = Hashtbl.create 16 in
  List.iter
    (fun (_, record) ->
      match record with
      | Record.Txn_begin tid
      | Record.Update_value { tid; _ }
      | Record.Update_operation { tid; _ } ->
          let top = Tid.top_level tid in
          if not (Hashtbl.mem status top) then Hashtbl.replace status top Active
      | Record.Txn_prepare (tid, c) ->
          Hashtbl.replace status (Tid.top_level tid) (Prepared c)
      | Record.Txn_commit tid ->
          Hashtbl.replace status (Tid.top_level tid) Committed
      | Record.Txn_abort tid ->
          Hashtbl.replace aborted tid ();
          if Tid.is_top tid then Hashtbl.replace status tid Aborted
      | _ -> ())
    forward;
  let winner tid =
    (not
       (Hashtbl.fold
          (fun a () acc -> acc || Tid.is_ancestor ~ancestor:a tid)
          aborted false))
    &&
    match Hashtbl.find_opt status (Tid.top_level tid) with
    | Some (Committed | Prepared _) -> true
    | Some (Aborted | Active) | None -> false
  in
  let applied = ref [] in
  let apply phase lsn pages f =
    applied := (phase, lsn) :: !applied;
    f ();
    Vm.note_pages vm pages ~lsn
  in
  let seqno pid = Disk.seqno (Vm.disk vm) pid in
  let restore obj value () =
    Vm.pin vm obj ~access:`Random;
    Vm.write vm obj value;
    Vm.unpin vm obj
  in
  (* operation redo: repeat history forward *)
  List.iter
    (fun (lsn, record) ->
      match record with
      | Record.Update_operation u
        when u.pages = [] || List.exists (fun pid -> seqno pid < lsn) u.pages ->
          apply "op_redo" lsn u.pages (fun () ->
              (handler u.server).Tabs_recovery.Recovery_mgr.redo
                ~op:u.operation ~arg:u.redo_arg)
      | _ -> ())
    forward;
  (* value recovery: one backward pass, newest record decides *)
  let finalized = Hashtbl.create 64 in
  List.iter
    (fun (lsn, record) ->
      match record with
      | Record.Update_value u when not (Hashtbl.mem finalized u.obj) ->
          let pages = Object_id.pages u.obj in
          let on_disk = List.for_all (fun pid -> seqno pid >= lsn) pages in
          if winner u.tid then begin
            if not on_disk then
              apply "value_redo" lsn pages (restore u.obj u.new_value);
            Hashtbl.replace finalized u.obj ()
          end
          else if on_disk then
            apply "value_undo" lsn pages (restore u.obj u.old_value)
      | _ -> ())
    backward;
  (* loser operation undo, newest first *)
  List.iter
    (fun (lsn, record) ->
      match record with
      | Record.Update_operation u when not (winner u.tid) ->
          apply "op_undo" lsn u.pages (fun () ->
              (handler u.server).Tabs_recovery.Recovery_mgr.undo
                ~op:u.operation ~arg:u.undo_arg)
      | _ -> ())
    backward;
  let with_status keep =
    Hashtbl.fold
      (fun tid s acc -> match keep s with Some x -> (tid, x) :: acc | None -> acc)
      status []
  in
  {
    losers =
      List.map fst (with_status (function Active -> Some () | _ -> None))
      |> List.sort Tid.compare;
    in_doubt =
      with_status (function Prepared c -> Some c | _ -> None)
      |> List.sort compare;
    applied = List.rev !applied;
  }

(* [run ~disk ~stable ~handlers ()] recovers copies of [disk] and
   [stable] (taken at call time, so call it right after the crash) and
   returns the outcome with the recovered, flushed disk copy.
   [handlers vm] supplies the operation-logging servers' undo/redo code
   over the copy's page pool. *)
let run ?(frames = 64) ~disk ~stable ~handlers () =
  let engine = Engine.create () in
  let disk = Disk.copy disk ~engine in
  let vm = Vm.attach engine disk ~frames () in
  let log = Log_manager.attach engine (Stable.copy stable) in
  let handlers = handlers vm in
  let out = ref None in
  ignore
    (Engine.spawn engine (fun () ->
         out := Some (replay log vm (fun server -> List.assoc server handlers));
         Vm.flush_all vm));
  ignore (Engine.run engine);
  (Option.get !out, disk)
