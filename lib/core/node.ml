open Tabs_sim
open Tabs_storage
open Tabs_accent
open Tabs_wal
open Tabs_net
open Tabs_recovery
open Tabs_tm
open Tabs_name

type incarnation = {
  vm : Vm.t;
  log : Log_manager.t;
  rm : Recovery_mgr.t;
  cm : Comm_mgr.t;
  tm : Txn_mgr.t;
  ns : Name_server.t;
  rpc : Rpc.registry;
}

type t = {
  engine : Engine.t;
  net : Network.t;
  node_id : int;
  disk : Disk.t;
  fresh : unit -> incarnation;
      (* a new set of managers over the surviving disk and stable
         storage: the first boot and every restart *)
  mutable live : incarnation;
  mutable up : bool;
}

let create engine net ~id ?(profile = Profile.Classic) ?group_commit
    ?checkpointing ?parallel_recovery ?(instant_restart = false)
    ?comm_batching ?(commit_protocol = Commit_protocol.default)
    ?(frames = 1500) ?(log_space_limit = 256 * 1024)
    ?(read_only_optimization = true) () =
  let disk = Disk.create engine in
  let stable = Stable.create () in
  let fresh () =
    let vm = Vm.attach engine disk ~frames ~profile () in
    let log = Log_manager.attach engine stable in
    let rm =
      Recovery_mgr.create engine ~node:id ~log ~vm ~profile ?group_commit
        ?checkpointing ~log_space_limit ?parallel_recovery ~instant_restart ()
    in
    let cm = Comm_mgr.create net ~node:id ?batching:comm_batching () in
    let tm =
      Txn_mgr.create engine ~node:id ~rm ~cm ~profile ~commit_protocol
        ~read_only_optimization ()
    in
    let ns = Name_server.create engine ~node:id ~cm in
    let rpc = Rpc.create_registry engine ~node:id ~cm in
    { vm; log; rm; cm; tm; ns; rpc }
  in
  let live = fresh () in
  { engine; net; node_id = id; disk; fresh; live; up = true }

let id t = t.node_id

let tm t = t.live.tm

let rm t = t.live.rm

let cm t = t.live.cm

let ns t = t.live.ns

let vm t = t.live.vm

let rpc t = t.live.rpc

let log t = t.live.log

let disk t = t.disk

let is_up t = t.up

let env t =
  {
    Server_lib.engine = t.engine;
    node = t.node_id;
    vm = t.live.vm;
    rm = t.live.rm;
    tm = t.live.tm;
    rpc = t.live.rpc;
    ns = t.live.ns;
  }

let crash t =
  if t.up then begin
    t.up <- false;
    Comm_mgr.shutdown t.live.cm;
    Network.set_node_up t.net ~node:t.node_id false;
    Engine.crash_node t.engine t.node_id
  end

let restart t ~reinstall ?(after_recovery = fun _ -> ()) () =
  if t.up then invalid_arg "Node.restart: node is up";
  Network.set_node_up t.net ~node:t.node_id true;
  t.live <- t.fresh ();
  t.up <- true;
  (* while the log replays below, the node has "no record" of
     transactions it may well have decided: answering status queries by
     presumed abort in that window could split a committed outcome *)
  Txn_mgr.hold_status_queries t.live.tm;
  reinstall (env t);
  let outcome = Recovery_mgr.recover t.live.rm in
  (* in-doubt data must be re-locked before resolution can race it *)
  after_recovery outcome;
  Txn_mgr.recover t.live.tm outcome;
  outcome

let checkpoint t = Recovery_mgr.checkpoint t.live.rm
