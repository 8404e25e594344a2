open Tabs_storage
open Tabs_wal
open Tabs_lock
open Tabs_core

let slot_size = 8

let slots_per_page = Page.size / slot_size

type t = { server : Server_lib.t; n_accounts : int }

let server t = t.server

let accounts t = t.n_accounts

let account_obj t i =
  let page = i / slots_per_page and slot = i mod slots_per_page in
  Server_lib.create_object_id t.server
    ~offset:((page * Page.size) + (slot * slot_size))
    ~length:slot_size

let check_range t i =
  if i < 0 || i >= t.n_accounts then
    raise (Errors.Server_error "NoSuchAccount")

(* A balance is an 8-byte slot *)
let read_slot t obj = Codec.(decode slot) (Server_lib.read_object t.server obj)

let write_slot t obj v = Server_lib.write_object t.server obj (Codec.(encode slot) v)

(* A transition-logged adjustment: a list of (account, old, new)
   absolute balances. Applying either side is idempotent. *)
let adjustment = Codec.(list (pair int int))

let balance t tid i =
  Server_lib.enter_operation t.server tid;
  check_range t i;
  let obj = account_obj t i in
  Server_lib.lock_object t.server tid obj Mode.Read;
  read_slot t obj

(* Apply an adjustment through one operation log record. Precondition:
   all objects write-locked by [tid]. *)
let apply_adjustment t tid entries =
  let objs = List.map (fun (i, _, _) -> account_obj t i) entries in
  List.iter (fun obj -> Server_lib.pin_object t.server obj) objs;
  List.iter2 (fun obj (_, _, new_value) -> write_slot t obj new_value) objs entries;
  Server_lib.log_operation t.server tid ~op:"adjust"
    ~undo_arg:
      (Codec.encode adjustment (List.map (fun (i, old_v, _) -> (i, old_v)) entries))
    ~redo_arg:
      (Codec.encode adjustment (List.map (fun (i, _, new_v) -> (i, new_v)) entries))
    ~objs;
  List.iter (fun obj -> Server_lib.unpin_object t.server obj) objs

let deposit t tid i amount =
  Server_lib.enter_operation t.server tid;
  check_range t i;
  let obj = account_obj t i in
  Server_lib.lock_object t.server tid obj Mode.Write;
  let old_value = read_slot t obj in
  apply_adjustment t tid [ (i, old_value, old_value + amount) ]

(* The debit half of a cross-server transfer: like [deposit] of a
   negative amount, but with the funds check [transfer] performs — so a
   sharded transfer (withdraw on one shard, deposit on another, one
   atomic transaction) keeps the invariant that no committed balance
   goes negative. *)
let withdraw t tid i amount =
  Server_lib.enter_operation t.server tid;
  check_range t i;
  if amount < 0 then raise (Errors.Server_error "NegativeAmount");
  let obj = account_obj t i in
  Server_lib.lock_object t.server tid obj Mode.Write;
  let old_value = read_slot t obj in
  if old_value < amount then raise (Errors.Server_error "InsufficientFunds");
  apply_adjustment t tid [ (i, old_value, old_value - amount) ]

let transfer t tid ~from_ ~to_ amount =
  Server_lib.enter_operation t.server tid;
  check_range t from_;
  check_range t to_;
  if from_ = to_ then raise (Errors.Server_error "SameAccount");
  (* lock in index order to avoid deadlocks between transfers *)
  let first = min from_ to_ and second = max from_ to_ in
  Server_lib.lock_object t.server tid (account_obj t first) Mode.Write;
  Server_lib.lock_object t.server tid (account_obj t second) Mode.Write;
  let from_balance = read_slot t (account_obj t from_) in
  let to_balance = read_slot t (account_obj t to_) in
  if from_balance < amount then raise (Errors.Server_error "InsufficientFunds");
  (* one multi-page operation record covers both balances *)
  apply_adjustment t tid
    [
      (from_, from_balance, from_balance - amount);
      (to_, to_balance, to_balance + amount);
    ]

(* Commuting blind addition under the type-specific "credit" mode: the
   record carries a delta, so concurrent credits by different
   transactions replay correctly in any serialization. The sequence-
   number gate guarantees each delta is applied exactly once per page
   during the redo pass. *)
let credit t tid i amount =
  Server_lib.enter_operation t.server tid;
  check_range t i;
  let obj = account_obj t i in
  Server_lib.lock_object t.server tid obj (Mode.Typed "credit");
  Server_lib.pin_object t.server obj;
  let balance = read_slot t obj in
  write_slot t obj (balance + amount);
  Server_lib.log_operation t.server tid ~op:"credit"
    ~undo_arg:(Codec.encode adjustment [ (i, -amount) ])
    ~redo_arg:(Codec.encode adjustment [ (i, amount) ])
    ~objs:[ obj ];
  Server_lib.unpin_object t.server obj

(* Recovery-time redo/undo. "adjust" records carry absolute balances;
   "credit" records carry deltas. Both run outside any transaction,
   straight against the mapped segment. *)
let install_handlers t =
  let write_absolute ~arg =
    List.iter
      (fun (i, v) ->
        let obj = account_obj t i in
        Server_lib.pin_object t.server obj;
        write_slot t obj v;
        Server_lib.unpin_object t.server obj)
      (Codec.decode adjustment arg)
  in
  let apply_delta ~arg =
    List.iter
      (fun (i, d) ->
        let obj = account_obj t i in
        Server_lib.pin_object t.server obj;
        let v = read_slot t obj in
        write_slot t obj (v + d);
        Server_lib.unpin_object t.server obj)
      (Codec.decode adjustment arg)
  in
  Server_lib.register_operation t.server ~op:"adjust" ~redo:write_absolute
    ~undo:write_absolute;
  Server_lib.register_operation t.server ~op:"credit" ~redo:apply_delta
    ~undo:apply_delta

(* RPC plumbing ------------------------------------------------------------ *)

let balance_op = Rpc.op "balance" Codec.int Codec.int

let deposit_op = Rpc.op "deposit" Codec.(pair int int) Codec.unit

let credit_op = Rpc.op "credit" Codec.(pair int int) Codec.unit

let withdraw_op = Rpc.op "withdraw" Codec.(pair int int) Codec.unit

let transfer_op = Rpc.op "transfer" Codec.(triple int int int) Codec.unit

(* "credit" commutes with itself and nothing else *)
let compatible = Mode.with_typed [ ("credit", "credit") ]

let create env ~name ~segment ~accounts () =
  let pages = (accounts + slots_per_page - 1) / slots_per_page in
  let server = Server_lib.create env ~name ~segment ~pages ~compatible () in
  let t = { server; n_accounts = accounts } in
  install_handlers t;
  Server_lib.accept_requests server
    (Rpc.serve
       [
         Rpc.handle balance_op (fun tid i -> balance t tid i);
         Rpc.handle deposit_op (fun tid (i, amount) -> deposit t tid i amount);
         Rpc.handle credit_op (fun tid (i, amount) -> credit t tid i amount);
         Rpc.handle withdraw_op (fun tid (i, amount) -> withdraw t tid i amount);
         Rpc.handle transfer_op (fun tid (from_, to_, amount) ->
             transfer t tid ~from_ ~to_ amount);
       ]);
  Server_lib.register_name server ~name ~object_id:"accounts";
  t

let call_balance rpc ~dest ~server tid i =
  Rpc.invoke rpc ~dest ~server tid balance_op i

let call_deposit rpc ~dest ~server tid i amount =
  Rpc.invoke rpc ~dest ~server tid deposit_op (i, amount)

let call_withdraw rpc ~dest ~server tid i amount =
  Rpc.invoke rpc ~dest ~server tid withdraw_op (i, amount)

let call_transfer rpc ~dest ~server tid ~from_ ~to_ amount =
  Rpc.invoke rpc ~dest ~server tid transfer_op (from_, to_, amount)
