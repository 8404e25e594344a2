(** The TABS server library (Table 3-1).

    A data server is built around one recoverable segment mapped into
    virtual memory, a local lock manager with automatic unlock at commit
    or abort, and value- or operation-logging helpers that enforce the
    write-ahead discipline by pinning objects around their modification.
    Paper routine names map as: [InitServer]+[ReadPermanentData] →
    {!create}, [RecoverServer] is performed by the node's Recovery
    Manager at restart, [AcceptRequests] → {!accept_requests}, and the
    rest keep their names in snake case. *)

type t

(** Handles a server needs from its node; the node assembly fills
    this. *)
type env = {
  engine : Tabs_sim.Engine.t;
  node : int;
  vm : Tabs_accent.Vm.t;
  rm : Tabs_recovery.Recovery_mgr.t;
  tm : Tabs_tm.Txn_mgr.t;
  rpc : Rpc.registry;
  ns : Tabs_name.Name_server.t;
}

(** [create env ~name ~segment ~pages ()] initializes the server: maps
    (and, first time, creates) its recoverable segment, builds its lock
    manager with the given compatibility relation, and registers with
    the Transaction Manager and Recovery Manager. Lock waits give up
    after the deadlock time-out, 2 s of virtual time. *)
val create :
  env ->
  name:string ->
  segment:int ->
  pages:int ->
  ?compatible:Tabs_lock.Mode.compat ->
  unit ->
  t

val env : t -> env

val lock_manager : t -> Tabs_lock.Lock_manager.t

(** {2 Startup} *)

(** [accept_requests t dispatch] starts serving operation requests.
    Each incoming request runs as a coroutine: the wrapper verifies the
    transaction is not already aborted, reports the server's first
    operation for the transaction to the Transaction Manager, then
    dispatches. *)
val accept_requests : t -> Rpc.dispatch -> unit

(** [enter_operation t tid] performs the request wrapper's bookkeeping
    for operations invoked through a server's direct (same-address-
    space) API instead of RPC: raises {!Errors.Transaction_is_aborted}
    if the transaction already aborted, and reports the server's first
    operation on behalf of [tid] to the Transaction Manager. *)
val enter_operation : t -> Tabs_wal.Tid.t -> unit

(** {2 Address arithmetic} *)

(** [create_object_id t ~offset ~length] converts a virtual address
    (byte offset within the mapped segment) and a length to a logical
    object identifier. *)
val create_object_id : t -> offset:int -> length:int -> Tabs_wal.Object_id.t

(** {2 Locking} *)

(** [lock_object t tid obj mode] waits for the lock; raises
    {!Errors.Lock_timeout} when the time-out (deadlock resolution)
    expires. *)
val lock_object :
  t -> Tabs_wal.Tid.t -> Tabs_wal.Object_id.t -> Tabs_lock.Mode.t -> unit

val conditionally_lock_object :
  t -> Tabs_wal.Tid.t -> Tabs_wal.Object_id.t -> Tabs_lock.Mode.t -> bool

val is_object_locked : t -> Tabs_wal.Object_id.t -> bool

(** {2 Paging control} *)

val pin_object : t -> Tabs_wal.Object_id.t -> unit

val unpin_object : t -> Tabs_wal.Object_id.t -> unit

val unpin_all_objects : t -> unit

(** {2 Reading and writing mapped data} *)

(** [read_object t obj] reads the object's current bytes (demand-paging
    as needed; [access] defaults to [`Random]). *)
val read_object :
  t -> ?access:[ `Random | `Sequential ] -> Tabs_wal.Object_id.t -> string

(** [write_object t obj value] overwrites the object in memory; its
    pages must be pinned. *)
val write_object : t -> Tabs_wal.Object_id.t -> string -> unit

(** {2 Value logging} *)

(** [pin_and_buffer t tid obj] pins the object and buffers its current
    (old) value in anticipation of a modification; [access] hints the
    demand-paging pattern of the fault that may result. *)
val pin_and_buffer :
  t ->
  Tabs_wal.Tid.t ->
  ?access:[ `Random | `Sequential ] ->
  Tabs_wal.Object_id.t ->
  unit

(** [log_and_unpin t tid obj] sends the buffered old value and the
    existing (new) value to the Recovery Manager and unpins. *)
val log_and_unpin : t -> Tabs_wal.Tid.t -> Tabs_wal.Object_id.t -> unit

(** {2 Marked-object batch (checkpoint-safe locking)} *)

(** [lock_and_mark t tid obj mode] locks and enqueues the object on the
    transaction's to-be-modified queue, so that all locks are set
    before anything is pinned (the checkpoint protocol requires servers
    not to wait while objects are pinned). *)
val lock_and_mark :
  t -> Tabs_wal.Tid.t -> Tabs_wal.Object_id.t -> Tabs_lock.Mode.t -> unit

val pin_and_buffer_marked_objects : t -> Tabs_wal.Tid.t -> unit

val log_and_unpin_marked_objects : t -> Tabs_wal.Tid.t -> unit

(** {2 Operation logging} *)

(** [register_operation t ~op ~redo ~undo] installs the logical redo and
    undo for an operation-logged object type. [redo] must be idempotent
    at page granularity. *)
val register_operation :
  t ->
  op:string ->
  redo:(arg:string -> unit) ->
  undo:(arg:string -> unit) ->
  unit

(** [log_operation t tid ~op ~undo_arg ~redo_arg ~objs] writes one
    operation-logging record covering all of [objs] (which may span
    pages — the multi-page economy of operation logging). The objects'
    pages must be pinned; the modification itself is performed by the
    caller via {!write_object} before unpinning. *)
val log_operation :
  t ->
  Tabs_wal.Tid.t ->
  op:string ->
  undo_arg:string ->
  redo_arg:string ->
  objs:Tabs_wal.Object_id.t list ->
  unit

(** {2 Transactions} *)

(** [execute_transaction t f] runs [f] in a new top-level transaction
    (servers use this to make output permanent regardless of the client
    transaction — the I/O server pattern). Returns [f]'s result on
    commit; aborts and re-raises on exception. *)
val execute_transaction : t -> (Tabs_wal.Tid.t -> 'a) -> 'a

(** {2 Name service} *)

(** [register_name t ~name ~object_id] publishes a binding for this
    server on the node's Name Server. *)
val register_name : t -> name:string -> object_id:string -> unit

(** {2 Restart support} *)

(** [relock_in_doubt t entries] re-acquires write locks on the objects
    in this server's segment written by prepared (in-doubt)
    transactions, restricting access until their coordinators decide. *)
val relock_in_doubt :
  t -> (Tabs_wal.Tid.t * Tabs_wal.Object_id.t) list -> unit
