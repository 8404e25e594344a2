(** Deterministic discrete-event simulation engine with lightweight
    fibers.

    The engine plays the role of the Perq/Accent substrate in the TABS
    prototype: it provides a virtual clock, schedulable events, and
    coroutine-style lightweight processes (Section 2.1.1 — "multiple
    lightweight processes within a single server process", switched only
    when an operation waits). Fibers are implemented with OCaml effects;
    all scheduling is deterministic (FIFO among simultaneous events).

    Time is in integer microseconds of virtual time. *)

type t

(** A lightweight process. A fiber may be bound to a node; crashing the
    node kills the fiber the next time it would run. *)
type fiber

(** Raised inside a fiber when its node has crashed; the engine raises it
    by discontinuing the fiber's suspended continuation. User code should
    not catch it (the fiber wrapper does). *)
exception Killed

(** [create ()] makes an engine with the {!Cost_model.measured} costs. *)
val create : ?cost_model:Cost_model.t -> unit -> t

(** [now t] is the current virtual time in microseconds. *)
val now : t -> int

val cost_model : t -> Cost_model.t

(** Engine-global primitive-operation counters (see {!Metrics}). *)
val metrics : t -> Metrics.t

(** {2 Tracing}

    An optional observer of typed {!Trace.event}s, stamped with the
    virtual time at emission. Purely observational: installing a sink
    never changes metrics, delays, or scheduling order. *)

(** [set_tracer t sink] installs (or, with [None], removes) the trace
    sink. At most one sink is installed; installing replaces. *)
val set_tracer : t -> Trace.sink option -> unit

(** [tracing t] is true when a sink is installed. Emission sites must
    guard event construction with this so that tracing is allocation-free
    when disabled: [if Engine.tracing e then Engine.emit e (Ev {...})]. *)
val tracing : t -> bool

(** [emit t ev] forwards [ev] to the installed sink, stamped with
    [now t]. A no-op when no sink is installed. *)
val emit : t -> Trace.event -> unit

(** [at t ~delay fn] schedules plain callback [fn] to run [delay]
    microseconds from now. Callbacks are not fibers and must not perform
    fiber effects; they may spawn fibers or signal wait queues. *)
val at : t -> delay:int -> (unit -> unit) -> unit

(** [spawn t ?node fn] creates a fiber running [fn], scheduled
    immediately. Exceptions other than {!Killed} escaping [fn] abort the
    simulation run. *)
val spawn : t -> ?node:int -> (unit -> unit) -> fiber

(** {2 Timers} *)

(** A pending start that can be withdrawn before it happens. *)
type timer

(** [timer t ~node ~delay fn] starts [fn] as a fiber bound to [node]
    [delay] microseconds from now, in the same order as any event
    scheduled then. The timer does nothing if [node] crashes before it
    fires, as a fiber of that node would be killed. Time-outs that
    guard one transaction use it, so that the end of the transaction
    can {!cancel} them. *)
val timer : t -> node:int -> delay:int -> (unit -> unit) -> timer

(** [cancel t timer] withdraws [timer] if it has not fired: its event
    leaves the queue and drops its closure at once, and it is never
    run or counted by {!events_processed}. A no-op on a timer that has
    fired or been cancelled. *)
val cancel : t -> timer -> unit

(** [run t] processes events until none remain. Returns the number of
    events processed. *)
val run : t -> int

(** [run_until t ~time] processes events with timestamp <= [time], then
    advances the clock to [time]. *)
val run_until : t -> time:int -> unit

(** [events_processed t] is the total number of events executed by
    {!run} and {!run_until} over the engine's lifetime — the
    denominator for events-per-second throughput reporting. *)
val events_processed : t -> int

(** [crash_node t node] invalidates every fiber bound to [node]: each is
    discontinued with {!Killed} when next scheduled. *)
val crash_node : t -> int -> unit

(** [node_alive t node] is false only for fibers spawned before the last
    {!crash_node} on [node]; new fibers may be spawned after a crash
    (restart). *)
val node_epoch : t -> int -> int

(** {2 Operations usable only inside a fiber} *)

(** [delay micros] suspends the calling fiber for [micros] of virtual
    time. *)
val delay : int -> unit

(** [charge t prim] records [prim] in the engine metrics and delays the
    calling fiber by the primitive's cost under the current model. *)
val charge : t -> Cost_model.primitive -> unit

(** [record_only t prim] records [prim] without delaying — used when a
    primitive's latency is accounted on another fiber's critical path
    (e.g. parallel datagrams during three-node commit). *)
val record_only : t -> Cost_model.primitive -> unit

(** [elide t prim] notes that a hop which would cost [prim] on a
    {!Profile.Classic} node was performed as a direct procedure call on
    an {!Profile.Integrated} node: nothing is charged and the caller is
    not delayed; the execution lands in the metrics' elided counters
    (see {!Metrics.record_elided}). Safe outside a fiber. *)
val elide : t -> Cost_model.primitive -> unit

(** [charge_fraction t prim ~num ~den] records num/den of one execution
    and delays the fiber by the same fraction of the primitive's cost —
    the paper's accounting for work overlapped with other sends
    ("one-half datagram time", Table 5-3). *)
val charge_fraction : t -> Cost_model.primitive -> num:int -> den:int -> unit

(** [charge_cpu t ~process micros] attributes [micros] of CPU time to the
    named system process (e.g. ["tm"], ["rm"], ["cm"]) and delays the
    calling fiber. The accumulators feed the "Measured TABS Process Time"
    column of Table 5-4. *)
val charge_cpu : t -> process:string -> int -> unit

(** [note_cpu t ~process micros] accumulates into the named counter
    without delaying the caller — used to tag time that is {e already}
    charged elsewhere but needs separate attribution (e.g. the message
    costs an integrated architecture would elide, feeding the "Improved
    TABS Architecture" projection of Table 5-4). *)
val note_cpu : t -> process:string -> int -> unit

(** [cpu_time t ~process] is the total CPU time attributed so far. *)
val cpu_time : t -> process:string -> int

(** [fiber_id t] is the engine-unique identifier of the fiber of [t]
    that is running (deterministic: ids come from a per-engine spawn
    counter). Used as an owner token by re-entrant latches such as the
    instant-restart per-page replay. Raises [Invalid_argument] outside a
    fiber of [t]. *)
val fiber_id : t -> int

(** {2 Wait queues}

    A wait queue suspends fibers until signaled, optionally with a
    timeout — the mechanism beneath lock waits (deadlock resolution by
    time-out, Section 2.1.3) and RPC replies. *)

module Waitq : sig
  type engine := t

  type 'a t

  val create : unit -> 'a t

  (** [wait q] suspends the calling fiber until [signal] passes it a
      value. *)
  val wait : 'a t -> 'a

  (** [wait_timeout q ~engine ~timeout] is [Some v] if signaled within
      [timeout] microseconds, [None] otherwise. A signal cancels the
      time-out: it leaves no event behind. *)
  val wait_timeout : 'a t -> engine:engine -> timeout:int -> 'a option

  (** [signal q ~engine v] wakes the earliest waiter with [v]; returns
      false if no fiber was waiting. *)
  val signal : 'a t -> engine:engine -> 'a -> bool

  (** [signal_all q ~engine v] wakes every current waiter; returns how
      many were woken. *)
  val signal_all : 'a t -> engine:engine -> 'a -> int

  (** [waiters q] is the number of fibers currently suspended. *)
  val waiters : 'a t -> int
end
