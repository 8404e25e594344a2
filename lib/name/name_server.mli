(** The Name Server: name dissemination (Sections 3.1.3 and 3.2.5).

    Each node's Name Server maps object names to one or more
    <port, logical-object-identifier> pairs for objects managed by data
    servers on that node. When asked about an unknown name it broadcasts
    a lookup request to all other Name Servers; replies arrive as
    datagrams. A data server may service several objects on one port,
    and independent data servers on different nodes may register the same
    name — that is how replicated objects advertise their
    representatives. *)

(** One <port, logical-object-identifier> binding. In this
    implementation a port is addressed by (node, server-name). *)
type entry = { name : string; node : int; server : string; object_id : string }

type t

val create : Tabs_sim.Engine.t -> node:int -> cm:Tabs_net.Comm_mgr.t -> t

(** [register t ~name ~server ~object_id] publishes a local binding. *)
val register : t -> name:string -> server:string -> object_id:string -> unit

(** [deregister t ~name ~server] withdraws a local binding. *)
val deregister : t -> name:string -> server:string -> unit

(** [lookup t ~name ~desired ~max_wait ()] returns up to [desired]
    bindings, consulting the local table first and broadcasting on a
    miss (or when more replicas are wanted than are known locally).
    Waits at most [max_wait] microseconds for remote replies. Must run
    inside a fiber. *)
val lookup :
  t -> name:string -> ?desired:int -> ?max_wait:int -> unit -> entry list

(** {2 Placement-aware lookups}

    A sharded keyspace advertises each shard's slice through the
    directory: every shard instance registers under the keyspace's
    {e logical} name with an object id that encodes the owned key range,
    so any node can resolve "who owns key [k] of keyspace [n]?" with an
    ordinary directory lookup — no separate placement service. *)

(** [range_object_id ~lo ~hi] encodes ownership of keys [lo <= k < hi]. *)
val range_object_id : lo:int -> hi:int -> string

(** [range_of_entry e] decodes an entry's key range, if it has one. *)
val range_of_entry : entry -> (int * int) option

(** [register_range t ~name ~server ~lo ~hi] publishes a local binding
    that owns keys [lo <= k < hi] of keyspace [name]. *)
val register_range : t -> name:string -> server:string -> lo:int -> hi:int -> unit

(** [lookup_owner t ~name ~key ()] finds the binding whose key range
    covers [key], consulting the local table first and broadcasting on a
    miss. [None] after [max_wait] microseconds without a covering reply.
    Must run inside a fiber. *)
val lookup_owner :
  t -> name:string -> key:int -> ?max_wait:int -> unit -> entry option
