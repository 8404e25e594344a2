(** CPU-time overheads of the TABS system processes.

    These constants are model {e inputs}, calibrated from the accounting
    prose of Section 5.2 — not outputs of the simulation. They feed the
    "Measured TABS Process Time" column of Table 5-4. All values in
    microseconds. Only attributable time is charged: the 9 ms of the
    local read-only benchmark that the paper's analysis "does not
    account for" is left out. *)

(** Transaction Manager work to begin + commit a local read-only
    transaction (36 ms). *)
val tm_local_readonly : int

(** Recovery Manager work for a local read-only transaction (5 ms). *)
val rm_local_readonly : int

(** Data-server-side cost to join and commit a transaction (4 ms). *)
val data_server_txn : int

(** Extra data-server time to format and send log data on a write
    (5 ms). *)
val data_server_log_format : int

(** Extra Recovery Manager time to spool log data on a write (10 ms). *)
val rm_spool_write : int

(** Extra Recovery Manager time for the update-commit protocol (8 ms). *)
val rm_commit_write : int

(** Extra Transaction Manager time for the update-commit protocol
    (24 ms). *)
val tm_commit_write : int
