open Tabs_sim
open Tabs_wal
open Tabs_net

type dispatch = tid:Tid.t -> op:string -> arg:string -> string

type reply =
  | Rpc_ok of string
  | Rpc_aborted of Tid.t
  | Rpc_lock_timeout of Object_id.t
  | Rpc_error of string

type Network.payload +=
  | Rpc_request of {
      call_id : int;
      reply_to : int;
      server : string;
      tid : Tid.t;
      op : string;
      arg : string;
    }
  | Rpc_reply of { call_id : int; reply : reply }

exception Rpc_timeout of { dest : int; server : string; op : string }

type registry = {
  engine : Engine.t;
  node : int;
  cm : Comm_mgr.t;
  servers : (string, dispatch) Hashtbl.t;
  pending : (int, reply Engine.Waitq.t) Hashtbl.t;
  mutable next_call : int;
}

(* A remote call that gets no reply within this much virtual time
   raises [Rpc_timeout]. *)
let call_timeout = 5_000_000

let expose t ~server dispatch = Hashtbl.replace t.servers server dispatch

let run_dispatch t ~server ~tid ~op ~arg =
  match Hashtbl.find_opt t.servers server with
  | None -> Rpc_error (Printf.sprintf "no such data server: %s" server)
  | Some dispatch -> (
      try Rpc_ok (dispatch ~tid ~op ~arg) with
      | Errors.Transaction_is_aborted aborted_tid -> Rpc_aborted aborted_tid
      | Errors.Lock_timeout obj -> Rpc_lock_timeout obj
      | Errors.Server_error msg -> Rpc_error msg)

let unwrap = function
  | Rpc_ok result -> result
  | Rpc_aborted tid -> raise (Errors.Transaction_is_aborted tid)
  | Rpc_lock_timeout obj -> raise (Errors.Lock_timeout obj)
  | Rpc_error msg -> raise (Errors.Server_error msg)

let call t ~dest ~server ~tid ~op ~arg =
  if dest = t.node then begin
    (* Local: one Data Server Call primitive; the operation runs as a
       coroutine of the server, here directly in the calling fiber. *)
    Engine.charge t.engine Cost_model.Data_server_call;
    unwrap (run_dispatch t ~server ~tid ~op ~arg)
  end
  else begin
    Engine.charge t.engine Cost_model.Inter_node_data_server_call;
    (* The Communication Managers at both ends do most of this work;
       the paper counts it in "Measured TABS Process Time" as well as in
       the primitive prediction (Section 5.2 explains the double count:
       subtracting CM time reconciles the columns). The 73% share is
       calibrated from that reconciliation. *)
    Engine.note_cpu t.engine ~process:"cm"
      (Cost_model.cost (Engine.cost_model t.engine)
         Cost_model.Inter_node_data_server_call
      * 73 / 100);
    let call_id = t.next_call in
    t.next_call <- call_id + 1;
    let q = Engine.Waitq.create () in
    Hashtbl.replace t.pending call_id q;
    Comm_mgr.session_send t.cm ~dest ~tid
      (Rpc_request { call_id; reply_to = t.node; server; tid; op; arg });
    let reply =
      Engine.Waitq.wait_timeout q ~engine:t.engine ~timeout:call_timeout
    in
    Hashtbl.remove t.pending call_id;
    match reply with
    | Some reply -> unwrap reply
    | None -> raise (Rpc_timeout { dest; server; op })
  end

let create_registry engine ~node ~cm =
  let t =
    {
      engine;
      node;
      cm;
      servers = Hashtbl.create 8;
      pending = Hashtbl.create 16;
      next_call = 0;
    }
  in
  Comm_mgr.set_session_handler cm (fun ~src:_ payload ->
      match payload with
      | Rpc_request { call_id; reply_to; server; tid; op; arg } ->
          let reply = run_dispatch t ~server ~tid ~op ~arg in
          Comm_mgr.session_send t.cm ~dest:reply_to
            (Rpc_reply { call_id; reply })
      | Rpc_reply { call_id; reply } -> (
          match Hashtbl.find_opt t.pending call_id with
          | Some q -> ignore (Engine.Waitq.signal q ~engine:t.engine reply)
          | None -> ())
      | _ -> ());
  t

(* Typed operations --------------------------------------------------- *)

type ('a, 'r) op = { name : string; arg : 'a Codec.t; reply : 'r Codec.t }

let op name arg reply = { name; arg; reply }

let invoke t ~dest ~server tid op a =
  Codec.decode op.reply
    (call t ~dest ~server ~tid ~op:op.name ~arg:(Codec.encode op.arg a))

let handle op f =
  (op.name, fun tid arg -> Codec.encode op.reply (f tid (Codec.decode op.arg arg)))

let serve handlers =
  let table = Hashtbl.create 8 in
  List.iter (fun (name, h) -> Hashtbl.replace table name h) handlers;
  fun ~tid ~op ~arg ->
    match Hashtbl.find_opt table op with
    | Some h -> h tid arg
    | None -> raise (Errors.Server_error ("unknown op " ^ op))
