(** Node architecture profiles.

    [Classic] is the prototype the paper measured: the Transaction
    Manager, Recovery Manager and kernel are separate processes per node
    and every hop between them costs an Accent message primitive.

    [Integrated] is the Section 5.3 "Improved TABS Architecture": the
    Transaction Manager, Recovery Manager and kernel are co-located in
    one process, so the message exchanges between them — the TM's log
    record traffic to the RM, the kernel/RM page-out WAL protocol, and
    the first-modification notice — become direct procedure calls. Such
    hops are {e elided}: they cost nothing and are counted separately by
    {!Metrics} (see {!Engine.elide}). The WAL, locking and commit state
    machines are unchanged, so both profiles produce identical
    commit/abort outcomes and identical committed data. Under
    [Integrated] the second phase of distributed commitment is also
    overlapped with succeeding transactions, as Section 5.3 assumes.

    All other messages — application/TM, data server/TM, data
    server/RM spooling, Communication Manager and network traffic — are
    between processes that remain separate and are charged identically
    under both profiles. *)

type t = Classic | Integrated

val of_string : string -> t option

val pp : Format.formatter -> t -> unit
