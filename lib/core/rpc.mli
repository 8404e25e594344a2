(** Remote procedure calls between applications and data servers.

    The Matchmaker role (packing, unpacking, dispatching — Section 2.1.1)
    is played by {!op}: a data server declares each operation once, as a
    name with a {!Tabs_wal.Codec} for its argument and one for its reply.
    The client stub ({!invoke}) and the server's handler ({!handle},
    {!serve}) are both derived from that one declaration, so packing and
    unpacking cannot disagree. This module also supplies the transport:
    a local call charges one Data Server Call primitive and runs the
    operation as a server coroutine; a remote call charges the
    Inter-Node Data Server Call primitive and travels over Communication
    Manager sessions, which also lets the spanning tree record the
    transaction's spread. *)

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
    remote server does not answer within 5 s of virtual time. *)
val call :
  registry ->
  dest:int ->
  server:string ->
  tid:Tabs_wal.Tid.t ->
  op:string ->
  arg:string ->
  string

exception Rpc_timeout of { dest : int; server : string; op : string }

(** {2 Typed operations} *)

(** One data-server operation. *)
type ('a, 'r) op

(** [op name arg reply]: the operation [name], with the codecs of its
    argument and reply. *)
val op : string -> 'a Tabs_wal.Codec.t -> 'r Tabs_wal.Codec.t -> ('a, 'r) op

(** [invoke registry ~dest ~server tid op a] is the client stub: {!call}
    with [a] encoded and the reply decoded. *)
val invoke :
  registry -> dest:int -> server:string -> Tabs_wal.Tid.t -> ('a, 'r) op -> 'a -> 'r

(** [handle op f] is the server side of [op]: its name and a function
    that decodes the argument, runs [f] and encodes the reply. *)
val handle :
  ('a, 'r) op -> (Tabs_wal.Tid.t -> 'a -> 'r) -> string * (Tabs_wal.Tid.t -> string -> string)

(** [serve handlers] dispatches on the op name; an unknown op raises
    {!Errors.Server_error}. *)
val serve : (string * (Tabs_wal.Tid.t -> string -> string)) list -> dispatch
