(** The B-tree server (Section 4.4).

    Maintains collections of directory entries in a B-tree inside a
    recoverable segment, with a recoverable storage allocator for tree
    nodes: if a transaction that allocated pages aborts, the allocator
    state rolls back with it (value logging of the meta and node
    pages).

    Keys are strings of at most {!max_key_len} bytes and values at most
    {!max_value_len}; each node occupies exactly one 512-byte page, so
    every page modification is one value-logging record. Synchronization
    is a single tree lock, read for lookups and scans, write for
    mutations (a deliberate simplification of the original server's page
    locking; the original authors also reported that retrofitting
    locking onto the B-tree was the hard part). Deletion removes leaf
    entries without rebalancing, as many production B-trees do.

    This server backs the directory representatives of the replicated
    directory object (Section 4.5). *)

type t

val max_value_len : int

val create :
  Tabs_core.Server_lib.env ->
  name:string ->
  segment:int ->
  ?pages:int ->
  unit ->
  t

(** [insert t tid ~key ~value] adds or overwrites the entry. Raises
    [Tabs_core.Errors.Server_error] on oversized keys/values or when the
    segment is full. *)
val insert : t -> Tabs_wal.Tid.t -> key:string -> value:string -> unit

(** [lookup t tid ~key] finds the entry's value. *)
val lookup : t -> Tabs_wal.Tid.t -> key:string -> string option

(** [delete t tid ~key] removes the entry; false if absent. *)
val delete : t -> Tabs_wal.Tid.t -> key:string -> bool

(** [entries t tid] lists all entries in key order (one leaf-chain
    scan under a read lock). *)
val entries : t -> Tabs_wal.Tid.t -> (string * string) list

(** [size t tid] is the number of entries. *)
val size : t -> Tabs_wal.Tid.t -> int

(** Structural invariant check for tests: sorted keys, consistent
    depth, fanout within bounds. Raises [Failure] on violation. *)
val check_invariants : t -> Tabs_wal.Tid.t -> unit

(** Remote stubs. *)
val call_insert :
  Tabs_core.Rpc.registry -> dest:int -> server:string -> Tabs_wal.Tid.t ->
  key:string -> value:string -> unit

val call_lookup :
  Tabs_core.Rpc.registry -> dest:int -> server:string -> Tabs_wal.Tid.t ->
  key:string -> string option

val call_delete :
  Tabs_core.Rpc.registry -> dest:int -> server:string -> Tabs_wal.Tid.t ->
  key:string -> bool
