(** Remote procedure calls between applications and data servers.

    The Matchmaker role (packing, unpacking, dispatching — Section 2.1.1)
    is played by OCaml closures and the {!Tabs_wal.Codec}; this module
    supplies the transport: a local call charges one Data Server Call
    primitive and runs the operation as a server coroutine; a remote
    call charges the Inter-Node Data Server Call primitive and travels
    over Communication Manager sessions, which also lets the spanning
    tree record the transaction's spread. *)

(** What a data server installs to receive calls. May suspend (locks,
    paging); each invocation behaves as its own server coroutine. *)
type dispatch = tid:Tabs_wal.Tid.t -> op:string -> arg:string -> string

(** Per-node table of data-server entry points. *)
type registry

val create_registry :
  Tabs_sim.Engine.t -> node:int -> cm:Tabs_net.Comm_mgr.t -> registry

(** [expose registry ~server dispatch] publishes a data server's
    dispatcher on its node ([AcceptRequests]). *)
val expose : registry -> server:string -> dispatch -> unit

(** [call registry ~dest ~server ~tid ~op ~arg] invokes an operation on
    a data server from within a fiber. [dest] is the server's node;
    when it equals the registry's node the call is local. Raises
    [Failure] if the server is not exposed, and [Rpc_timeout] if a
    remote server does not answer. *)
val call :
  registry ->
  dest:int ->
  server:string ->
  tid:Tabs_wal.Tid.t ->
  op:string ->
  arg:string ->
  string

exception Rpc_timeout of { dest : int; server : string; op : string }

(** Remote-call timeout (default 5 s of virtual time). *)
val set_call_timeout : registry -> int -> unit
