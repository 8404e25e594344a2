open Tabs_sim
open Tabs_tm

let begin_transaction tm ?parent () =
  match parent with
  | None -> Txn_mgr.begin_txn tm
  | Some parent -> Txn_mgr.begin_subtxn tm parent

let end_transaction tm tid =
  match Txn_mgr.commit tm tid with
  | Txn_mgr.Committed -> true
  | Txn_mgr.Aborted -> false

let abort_transaction tm tid = Txn_mgr.abort tm tid

(* Classify the exception that killed the transaction body for the
   trace stream's abort-reason taxonomy. *)
let abort_reason_of = function
  | Errors.Lock_timeout _ -> Trace.Lock_timeout
  | Rpc.Rpc_timeout _ -> Trace.Comm_failure
  | _ -> Trace.Explicit

let execute_transaction tm f =
  let tid = Txn_mgr.begin_txn tm in
  match f tid with
  | result ->
      if end_transaction tm tid then result
      else raise (Errors.Transaction_is_aborted tid)
  | exception e ->
      Txn_mgr.abort tm ~reason:(abort_reason_of e) tid;
      raise e

let with_subtransaction tm parent f =
  let sub = Txn_mgr.begin_subtxn tm parent in
  match f sub with
  | result ->
      ignore (end_transaction tm sub);
      result
  | exception e ->
      Txn_mgr.abort tm sub;
      raise e
