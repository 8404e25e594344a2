(** The integer array server (Section 4.1).

    Maintains an array of word-sized integers in a recoverable segment
    and provides [GetCell]/[SetCell], using only the two-phase
    read/write locking and value logging found in many
    transaction-based systems — the paper's simplest data server
    (140 lines of Pascal; the combined Get/Set bodies were 50).

    The array is laid out one {!cells_per_page} run per page so that
    benchmark transactions can touch "an element from successive pages"
    (the sequential-paging workloads of Section 5). *)

type t

(** 64 eight-byte cells fit a 512-byte page. *)
val cells_per_page : int

(** [create env ~name ~segment ~cells ()] builds and exposes the server
    under RPC name [name]. *)
val create :
  Tabs_core.Server_lib.env -> name:string -> segment:int -> cells:int -> unit -> t

val server : t -> Tabs_core.Server_lib.t

(** {2 Direct (same-address-space) operations}

    These run the real code path — locking, pinning, logging — and must
    run inside a fiber. *)

(** [get t tid i] reads cell [i] under a read lock. [access] hints the
    demand-paging pattern (default [`Random]). Raises
    {!Tabs_core.Errors.Server_error} when [i] is out of range
    ([IndexOutOfRange]) and {!Tabs_core.Errors.Lock_timeout} on
    deadlock time-out. *)
val get :
  t -> Tabs_wal.Tid.t -> ?access:[ `Random | `Sequential ] -> int -> int

(** [set t tid i v] writes cell [i] under a write lock with value
    logging. *)
val set :
  t -> Tabs_wal.Tid.t -> ?access:[ `Random | `Sequential ] -> int -> int -> unit

(** {2 RPC client stubs (the Matchmaker role)} *)

(** [call_get rpc ~dest ~server tid i] — client stub usable from any
    node. *)
val call_get :
  Tabs_core.Rpc.registry -> dest:int -> server:string -> Tabs_wal.Tid.t ->
  ?access:[ `Random | `Sequential ] -> int -> int

val call_set :
  Tabs_core.Rpc.registry -> dest:int -> server:string -> Tabs_wal.Tid.t ->
  ?access:[ `Random | `Sequential ] -> int -> int -> unit
