(** In-memory trace sink: buffers every emitted event with its virtual
    timestamp, in emission order. *)

type entry = { time : int; event : Tabs_sim.Trace.event }

type t

(** [attach engine] installs a recording sink on [engine] (replacing any
    sink already installed) and returns the buffer. *)
val attach : Tabs_sim.Engine.t -> t

(** [detach t] removes the engine's sink, turning tracing back off.
    Recorded entries remain readable. *)
val detach : t -> unit

(** [entries t] in emission order (oldest first). *)
val entries : t -> entry list

val length : t -> int
