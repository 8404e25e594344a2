open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_lock
open Tabs_accent
open Tabs_recovery
open Tabs_tm

type env = {
  engine : Engine.t;
  node : int;
  vm : Vm.t;
  rm : Recovery_mgr.t;
  tm : Txn_mgr.t;
  rpc : Rpc.registry;
  ns : Tabs_name.Name_server.t;
}

type t = {
  env : env;
  name : string;
  segment : int;
  locks : Lock_manager.t;
  buffered : (Tid.t * Object_id.t, string) Hashtbl.t;
  marked : (Tid.t, Object_id.t list ref) Hashtbl.t;
  wrote : (Tid.t, unit) Hashtbl.t; (* top tids that logged here *)
  ops : (string, (arg:string -> unit) * (arg:string -> unit)) Hashtbl.t;
      (* op name -> (redo, undo) *)
}

let env t = t.env

let lock_manager t = t.locks

let clear_txn_state t top =
  let family key = Tid.is_ancestor ~ancestor:(Tid.top_level top) key in
  let stale_buffers =
    Hashtbl.fold
      (fun (tid, obj) _ acc -> if family tid then (tid, obj) :: acc else acc)
      t.buffered []
  in
  List.iter (fun key -> Hashtbl.remove t.buffered key) stale_buffers;
  let stale_marks =
    Hashtbl.fold
      (fun tid _ acc -> if family tid then tid :: acc else acc)
      t.marked []
  in
  List.iter (fun tid -> Hashtbl.remove t.marked tid) stale_marks;
  Hashtbl.remove t.wrote (Tid.top_level top)

let create env ~name ~segment ~pages ?(compatible = Mode.standard) () =
  Disk.ensure_segment (Vm.disk env.vm) segment ~pages;
  let t =
    {
      env;
      name;
      segment;
      locks = Lock_manager.create ~compatible env.engine ();
      buffered = Hashtbl.create 32;
      marked = Hashtbl.create 8;
      wrote = Hashtbl.create 32;
      ops = Hashtbl.create 8;
    }
  in
  Txn_mgr.register_server env.tm ~name
    {
      Txn_mgr.on_outcome =
        (fun top _outcome ->
          Lock_manager.release_family t.locks top;
          clear_txn_state t top);
      on_subtxn_commit = (fun sub -> Lock_manager.transfer_to_parent t.locks sub);
      on_subtxn_abort = (fun sub -> Lock_manager.release_subtree t.locks sub);
    };
  Recovery_mgr.register_op_handler env.rm ~server:name
    {
      Recovery_mgr.redo =
        (fun ~op ~arg ->
          match Hashtbl.find_opt t.ops op with
          | Some (redo, _) -> redo ~arg
          | None -> failwith (name ^ ": unregistered operation " ^ op));
      undo =
        (fun ~op ~arg ->
          match Hashtbl.find_opt t.ops op with
          | Some (_, undo) -> undo ~arg
          | None -> failwith (name ^ ": unregistered operation " ^ op));
    };
  t

(* Startup ------------------------------------------------------------- *)

let note_first_operation t tid =
  if Txn_mgr.join t.env.tm ~tid ~server:t.name then
    Engine.charge_cpu t.env.engine ~process:"ds" Overheads.data_server_txn

let enter_operation t tid =
  (* A request can race a restart: the node re-registers its servers
     before replaying the log, so data is consistent only once the
     Recovery Manager opens. Costs nothing when the node is up. *)
  Recovery_mgr.await_open t.env.rm;
  if Txn_mgr.is_aborted t.env.tm tid then
    raise (Errors.Transaction_is_aborted tid);
  note_first_operation t tid

let accept_requests t dispatch =
  let wrapped ~tid ~op ~arg =
    enter_operation t tid;
    dispatch ~tid ~op ~arg
  in
  Rpc.expose t.env.rpc ~server:t.name wrapped

(* Address arithmetic --------------------------------------------------- *)

let create_object_id t ~offset ~length =
  Object_id.make ~segment:t.segment ~offset ~length

(* Locking -------------------------------------------------------------- *)

let lock_object t tid obj mode =
  match Lock_manager.lock t.locks tid obj mode () with
  | Lock_manager.Granted -> ()
  | Lock_manager.Timed_out -> raise (Errors.Lock_timeout obj)

let conditionally_lock_object t tid obj mode =
  Lock_manager.try_lock t.locks tid obj mode

let is_object_locked t obj = Lock_manager.is_locked t.locks obj

(* Paging control -------------------------------------------------------- *)

let pin_object t obj = Vm.pin t.env.vm obj ~access:`Random

let unpin_object t obj = Vm.unpin t.env.vm obj

let unpin_all_objects t = Vm.unpin_all t.env.vm

(* Mapped data ------------------------------------------------------------ *)

let read_object t ?(access = `Random) obj = Vm.read t.env.vm obj ~access

let write_object t obj value = Vm.write t.env.vm obj value

(* Value logging ----------------------------------------------------------- *)

let note_wrote t tid =
  let top = Tid.top_level tid in
  if not (Hashtbl.mem t.wrote top) then begin
    Hashtbl.add t.wrote top ();
    (* formatting and sending log data costs the data server extra CPU *)
    Engine.charge_cpu t.env.engine ~process:"ds" Overheads.data_server_log_format
  end

let pin_and_buffer t tid ?(access = `Random) obj =
  Vm.pin t.env.vm obj ~access;
  Hashtbl.replace t.buffered (tid, obj) (Vm.read t.env.vm obj ~access)

let log_and_unpin t tid obj =
  let old_value =
    match Hashtbl.find_opt t.buffered (tid, obj) with
    | Some v -> v
    | None -> invalid_arg "log_and_unpin without pin_and_buffer"
  in
  Hashtbl.remove t.buffered (tid, obj);
  let new_value = Vm.read t.env.vm obj ~access:`Random in
  note_wrote t tid;
  ignore (Recovery_mgr.log_value t.env.rm ~tid ~obj ~old_value ~new_value);
  Vm.unpin t.env.vm obj

(* Marked-object batch ------------------------------------------------------ *)

let marked_queue t tid =
  match Hashtbl.find_opt t.marked tid with
  | Some q -> q
  | None ->
      let q = ref [] in
      Hashtbl.add t.marked tid q;
      q

let lock_and_mark t tid obj mode =
  lock_object t tid obj mode;
  let q = marked_queue t tid in
  if not (List.exists (Object_id.equal obj) !q) then q := obj :: !q

let pin_and_buffer_marked_objects t tid =
  List.iter (fun obj -> pin_and_buffer t tid obj) !(marked_queue t tid)

let log_and_unpin_marked_objects t tid =
  let q = marked_queue t tid in
  List.iter (fun obj -> log_and_unpin t tid obj) !q;
  Hashtbl.remove t.marked tid

(* Operation logging --------------------------------------------------------- *)

let register_operation t ~op ~redo ~undo = Hashtbl.replace t.ops op (redo, undo)

let log_operation t tid ~op ~undo_arg ~redo_arg ~objs =
  if not (Hashtbl.mem t.ops op) then
    invalid_arg ("log_operation: unregistered operation " ^ op);
  note_wrote t tid;
  ignore
    (Recovery_mgr.log_operation t.env.rm ~tid ~server:t.name ~op ~undo_arg
       ~redo_arg ~objs)

(* Transactions ---------------------------------------------------------------- *)

let execute_transaction t f =
  let tid = Txn_mgr.begin_txn t.env.tm in
  (* the server is itself the first (and usually only) participant *)
  note_first_operation t tid;
  match f tid with
  | result -> (
      match Txn_mgr.commit t.env.tm tid with
      | Txn_mgr.Committed -> result
      | Txn_mgr.Aborted -> raise (Errors.Transaction_is_aborted tid))
  | exception e ->
      Txn_mgr.abort t.env.tm tid;
      raise e

(* Name service ------------------------------------------------------------------ *)

let register_name t ~name ~object_id =
  Tabs_name.Name_server.register t.env.ns ~name ~server:t.name ~object_id

(* Restart support ---------------------------------------------------------------- *)

let relock_in_doubt t entries =
  List.iter
    (fun (tid, (obj : Object_id.t)) ->
      if obj.segment = t.segment then begin
        lock_object t tid obj Mode.Write;
        (* re-join so the coordinator's eventual verdict reaches this
           server and releases the locks *)
        ignore (Txn_mgr.join t.env.tm ~tid ~server:t.name)
      end)
    entries
