(** Globally unique transaction identifiers.

    The Transaction Manager allocates identifiers that are unique across
    the network (Section 3.2.3): the pair (birth node, local sequence
    number) identifies a top-level transaction; subtransactions extend
    their parent with a path of child indices (the paper's limited
    nesting model, Section 2.1.3). *)

type t = { node : int; seq : int; path : int list }

(** [top ~node ~seq] is a top-level transaction identifier. *)
val top : node:int -> seq:int -> t

(** [child parent ~index] is the [index]-th subtransaction of
    [parent]. *)
val child : t -> index:int -> t

(** [parent t] is [None] for top-level transactions. *)
val parent : t -> t option

(** [top_level t] strips the subtransaction path. *)
val top_level : t -> t

(** [is_top t] holds when [t] has no parent. *)
val is_top : t -> bool

(** [is_ancestor ~ancestor t] holds when [ancestor] is [t] or a proper
    ancestor of [t]. *)
val is_ancestor : ancestor:t -> t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
