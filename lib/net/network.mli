(** The shared network medium.

    Carries opaque payloads between nodes with configurable transmission
    delay, message loss, and partitions. Node liveness is tracked here:
    messages to or from a down node vanish, as on a real wire. The
    extensible {!payload} type lets upper layers (RPC, transaction
    manager, name server) define their own message vocabularies without
    this library knowing them. *)

(** Extended by upper layers, e.g. [type Network.payload += Prepare of ...]. *)
type payload = ..

(** Channel classes a node can listen on. *)
type channel = Datagram | Session | Broadcast

type t

(** [create engine ~seed] makes a lossless network; loss is enabled with
    {!set_loss}. *)
val create : Tabs_sim.Engine.t -> seed:int -> t

val engine : t -> Tabs_sim.Engine.t

(** [register t ~node ~channel handler] installs the current incarnation's
    receive handler: [handler ~src payload] runs in a fresh fiber bound
    to [node]. Registering again replaces the handler (restart). *)
val register :
  t -> node:int -> channel:channel -> (src:int -> payload -> unit) -> unit

(** [set_node_up t node up] — a down node neither sends nor receives;
    crashing also clears its handlers. *)
val set_node_up : t -> node:int -> bool -> unit

(** [set_partitioned t a b p] cuts (or heals) the link between [a] and
    [b] in both directions. *)
val set_partitioned : t -> int -> int -> bool -> unit

(** [set_loss t p] drops each transmission independently with
    probability [p]. *)
val set_loss : t -> float -> unit

(** [transmit t ~src ~dest ~channel ~delay payload] delivers after
    [delay] microseconds if the link and both endpoints permit. Does not
    charge primitives — callers account costs. Safe outside a fiber. *)
val transmit :
  t -> src:int -> dest:int -> channel:channel -> delay:int -> payload -> unit

(** [nodes t] lists nodes that have ever registered. *)
val nodes : t -> int list

(** Dropped transmissions broken down by cause: the random loss roll, a
    severed link, a down endpoint (source or destination), and delivery
    to a node with no handler registered on the channel. *)
type drop_stats = {
  loss : int;
  partition : int;
  down : int;
  no_handler : int;
}

val drops : t -> drop_stats

(** Total dropped transmissions — the sum over {!drops}' causes. *)
val dropped : t -> int
