(** An operation-logged account server.

    The paper's libraries exposed only value logging; operation
    (transition) logging was "tested and integrated" but unreleased, and
    Section 7 lists exposing it as future work. This server is that
    extension: balances are updated through {e operation log records}
    that name an operation and carry enough information to redo or undo
    it. Each record stores old and new absolute balances (transition
    logging), making redo and undo idempotent — which the three-pass
    recovery algorithm requires at page granularity.

    The showcase is [transfer]: it touches two balances that may live on
    different pages, yet writes {e one} log record — the multi-page
    advantage of operation logging over value logging called out in
    Section 2.1.3. *)

type t

val create :
  Tabs_core.Server_lib.env ->
  name:string ->
  segment:int ->
  accounts:int ->
  unit ->
  t

val server : t -> Tabs_core.Server_lib.t

val accounts : t -> int

(** [balance t tid i] reads account [i] under a read lock. *)
val balance : t -> Tabs_wal.Tid.t -> int -> int

(** [deposit t tid i amount] adds [amount] (may be negative) under a
    write lock, logging one operation record. *)
val deposit : t -> Tabs_wal.Tid.t -> int -> int -> unit

(** [credit t tid i amount] also adds [amount], but under the
    type-specific lock mode ["credit"], which is compatible with itself:
    two transactions may credit the same account concurrently, because
    blind additions commute. The log record is a {e delta} (redo adds,
    undo subtracts), replayed exactly once per page by the sequence-
    number gate — the combination of type-specific locking and operation
    logging that Sections 4.6 and 7 call the rich environment TABS was
    built to explore. [credit] conflicts with [balance] and [transfer]
    (reading would observe an uncommitted sum). *)
val credit : t -> Tabs_wal.Tid.t -> int -> int -> unit

(** [transfer t tid ~from_ ~to_ amount] moves [amount] atomically,
    logging a single multi-page operation record. Raises
    [Tabs_core.Errors.Server_error "InsufficientFunds"] when the source
    would go negative. *)
val transfer : t -> Tabs_wal.Tid.t -> from_:int -> to_:int -> int -> unit

(** Remote stubs. *)
val call_balance :
  Tabs_core.Rpc.registry -> dest:int -> server:string -> Tabs_wal.Tid.t ->
  int -> int

val call_deposit :
  Tabs_core.Rpc.registry -> dest:int -> server:string -> Tabs_wal.Tid.t ->
  int -> int -> unit

val call_withdraw :
  Tabs_core.Rpc.registry -> dest:int -> server:string -> Tabs_wal.Tid.t ->
  int -> int -> unit

val call_transfer :
  Tabs_core.Rpc.registry -> dest:int -> server:string -> Tabs_wal.Tid.t ->
  from_:int -> to_:int -> int -> unit
