(** Selection of the atomic-commitment protocol for distributed
    transactions.

    [Two_phase] (the default) is the paper's tree presumed-abort 2PC.
    [Paxos of {f}] is Gray & Lamport's {e Paxos Commit}: one Paxos
    consensus instance per root-level participant, replicated over
    2F+1 acceptors so commit/abort survives the loss of any F of them
    — including the coordinator.

    The setting is cluster-wide by convention: every node of a cluster
    must be created with the same value. Acceptors live on nodes
    [0 .. 2F], so a [Paxos {f}] cluster needs at least 2F+1 nodes. *)

type t =
  | Two_phase
  | Paxos of { f : int }  (** tolerates [f] acceptor failures, [1 <= f <= 3] *)

val default : t
(** [Two_phase]. *)

val to_string : t -> string
(** ["2pc"] or ["paxos:<f>"]. *)

val of_string : string -> t option
(** Accepts ["2pc"], ["twophase"], ["paxos"] (F=1), ["paxos:<f>"]. *)
