let tm_local_readonly = 36_000

let rm_local_readonly = 5_000

let data_server_txn = 4_000

let data_server_log_format = 5_000

let rm_spool_write = 10_000

let rm_commit_write = 8_000

let tm_commit_write = 24_000
