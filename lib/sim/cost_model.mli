(** Primitive operations and their latency cost models.

    The TABS paper evaluates transaction performance as the repeated
    execution of nine primitive operations (Section 5.1, Table 5-1) and
    projects improvements from an "achievable" cost table (Table 5-5).
    Times are kept in integer microseconds of virtual time. *)

(** The nine primitive operations of Table 5-1, plus one extension of
    ours ({!Coalesced_frame}) used by the comm-batching layer. *)
type primitive =
  | Data_server_call  (** local RPC from application to data server *)
  | Inter_node_data_server_call  (** session-based remote RPC *)
  | Datagram  (** inter-node transaction-management datagram *)
  | Small_contiguous_message  (** intra-node Accent message, < 500 bytes *)
  | Large_contiguous_message  (** intra-node Accent message, ~1100 bytes *)
  | Pointer_message  (** copy-on-write remapped Accent message *)
  | Random_paged_io  (** demand-paged random disk read or read/write *)
  | Sequential_read  (** sequential demand-paged disk read *)
  | Stable_storage_write  (** force of one log page to stable storage *)
  | Coalesced_frame
      (** marginal cost of one extra frame riding a coalesced datagram
          (our extension — not a Table 5-1 row; see
          {!Tabs_net.Comm_mgr}) *)

(** All primitives, in Table 5-1 order ({!Coalesced_frame} last). *)
val all : primitive list

val name : primitive -> string

(** [to_int p] is [p]'s dense index in Table 5-1 order,
    [0 .. count - 1] — a single branchless match, used to key
    per-primitive counter arrays without scanning {!all}. *)
val to_int : primitive -> int

(** Number of primitives ([List.length all]). *)
val count : int

(** A cost model maps each primitive to a latency in microseconds. *)
type t

(** [cost model p] is the latency of [p] in microseconds. *)
val cost : t -> primitive -> int

(** Table 5-1: times measured on the Perq T2 prototype. *)
val measured : t

(** Table 5-5: times deemed achievable by tuning software and adding
    disks. *)
val achievable : t

(** [make assoc] builds a model from per-primitive microsecond costs;
    primitives absent from [assoc] cost zero. *)
val make : (primitive * int) list -> t

(** [to_alist model] lists costs in Table 5-1 order. *)
val to_alist : t -> (primitive * int) list
