open Tabs_sim
open Tabs_storage

type lsn = Record.lsn

type Trace.event +=
  | Wal_append of { lsn : lsn; tid : Tid.t option; kind : string }
  | Log_force of { upto : lsn; records : int; bytes : int; pages : int }

(* A live transaction's backward undo chain: its first and latest
   update records. *)
type chain = { first : lsn; mutable last : lsn }

(* The volatile buffer holds exactly the contiguous LSN range
   [buf_first, buf_first + buf_len) — everything appended but not yet
   forced — as a circular array indexed by LSN offset, so append, read,
   and the force's suffix split are O(1)/O(batch) instead of the list
   scans a [(lsn * Record.t) list] needs. *)
type t = {
  engine : Engine.t;
  stable : Stable.t;
  mutable buf : Record.t array; (* circular; slot (buf_head + i) mod cap
                                   holds the record at buf_first + i *)
  mutable buf_head : int;
  mutable buf_len : int;
  mutable buf_first : lsn;
  mutable next : lsn;
  chains : (Tid.t, chain) Hashtbl.t;
  outcome_lsns : (Tid.t, lsn) Hashtbl.t;
      (* commit/abort/end records appended, keyed by transaction; the
         fuzzy checkpoint consults this so a transaction whose outcome
         is already in the log is never listed as active — the TM's
         bookkeeping lags the append while the commit force is in
         flight. Pruned at truncation, so it tracks the live log. *)
  mutable forces : int;
  mutable device_free_at : int; (* the stable-storage device is a single
                                   channel: a force whose writes would
                                   overlap an earlier force's queues
                                   behind it in virtual time *)
}

let dummy_record =
  Record.Checkpoint
    { dirty_pages = []; active_txns = []; prepared = []; acceptor_floor = None }

let attach engine stable =
  {
    engine;
    stable;
    buf = Array.make 64 dummy_record;
    buf_head = 0;
    buf_len = 0;
    buf_first = Stable.next stable;
    next = Stable.next stable;
    chains = Hashtbl.create 32;
    outcome_lsns = Hashtbl.create 32;
    forces = 0;
    device_free_at = 0;
  }

let buf_get t i = t.buf.((t.buf_head + i) mod Array.length t.buf)

let buf_push t record =
  let cap = Array.length t.buf in
  if t.buf_len = cap then begin
    let bigger = Array.make (2 * cap) dummy_record in
    for i = 0 to t.buf_len - 1 do
      bigger.(i) <- buf_get t i
    done;
    t.buf <- bigger;
    t.buf_head <- 0
  end;
  t.buf.((t.buf_head + t.buf_len) mod Array.length t.buf) <- record;
  t.buf_len <- t.buf_len + 1

(* Drop the oldest buffered record, returning it. *)
let buf_shift t =
  let record = t.buf.(t.buf_head) in
  t.buf.(t.buf_head) <- dummy_record;
  t.buf_head <- (t.buf_head + 1) mod Array.length t.buf;
  t.buf_len <- t.buf_len - 1;
  t.buf_first <- t.buf_first + 1;
  record

let stable t = t.stable

let last_lsn_of t tid =
  Option.map (fun c -> c.last) (Hashtbl.find_opt t.chains tid)

(* Minimum over every live update chain — active transactions,
   subtransactions, and prepared-but-unresolved participants alike
   (chains are only unregistered at commit/abort/end, and restart
   re-registers in-doubt ones). Log reclamation must keep everything
   from here on. *)
let oldest_first_lsn t =
  Hashtbl.fold
    (fun _ { first; _ } acc ->
      match acc with None -> Some first | Some a -> Some (min a first))
    t.chains None

let live_chain_firsts t =
  Hashtbl.fold (fun tid c acc -> (tid, c.first) :: acc) t.chains []

let has_appended_outcome t tid = Hashtbl.mem t.outcome_lsns tid

let chained_tids_of_family t top =
  let root = Tid.top_level top in
  Hashtbl.fold
    (fun tid _ acc ->
      if Tid.is_ancestor ~ancestor:root tid then tid :: acc else acc)
    t.chains []
  |> List.sort Tid.compare

let restore_chain t ~tid ~first ~last =
  Hashtbl.replace t.chains tid { first; last }

let next_lsn t = t.next

let flushed_lsn t = Stable.next t.stable

let push t record =
  let lsn = t.next in
  t.next <- lsn + 1;
  buf_push t record;
  (match Record.tid_of record with
  | Some tid -> (
      match record with
      | Record.Update_value _ | Record.Update_operation _ ->
          (match Hashtbl.find_opt t.chains tid with
          | Some c -> c.last <- lsn
          | None -> Hashtbl.add t.chains tid { first = lsn; last = lsn })
      | Record.Txn_commit _ | Record.Txn_abort _ | Record.Txn_end _ ->
          Hashtbl.remove t.chains tid;
          Hashtbl.replace t.outcome_lsns tid lsn
      | Record.Txn_begin _ | Record.Txn_prepare _ | Record.Checkpoint _
      | Record.Paxos_promise _ | Record.Paxos_accept _
      | Record.Paxos_decision _ -> ())
  | None -> ());
  if Engine.tracing t.engine then
    Engine.emit t.engine
      (Wal_append { lsn; tid = Record.tid_of record; kind = Record.kind record });
  lsn

let append t record =
  let with_prev =
    match record with
    | Record.Update_value u ->
        Record.Update_value { u with prev = last_lsn_of t u.tid }
    | Record.Update_operation u ->
        Record.Update_operation { u with prev = last_lsn_of t u.tid }
    | other -> other
  in
  push t with_prev

let append_value t ~tid ~obj ~old_value ~new_value =
  append t (Record.Update_value { tid; obj; old_value; new_value; prev = None })

let append_operation t ~tid ~server ~operation ~undo_arg ~redo_arg ~pages =
  append t
    (Record.Update_operation
       { tid; server; operation; undo_arg; redo_arg; pages; prev = None })

let force t ~upto =
  if upto >= flushed_lsn t then begin
    (* Flush every buffered record with LSN <= upto, oldest first.
       Records sit in the buffer in LSN order, so this is a prefix of
       the circular buffer — O(batch), no scan of what stays behind. *)
    let count = min t.buf_len (upto - t.buf_first + 1) in
    let records = ref 0 in
    let bytes = ref 0 in
    for _ = 1 to count do
      let lsn = t.buf_first in
      let encoded = Record.encode (buf_shift t) in
      let pos = Stable.append t.stable encoded in
      assert (pos = lsn);
      incr records;
      bytes := !bytes + String.length encoded
    done;
    if !bytes > 0 then begin
      (* the buffered records travel to the log device in one message *)
      Engine.charge t.engine Cost_model.Large_contiguous_message;
      let pages = (!bytes + Page.size - 1) / Page.size in
      t.forces <- t.forces + 1;
      if Engine.tracing t.engine then
        Engine.emit t.engine
          (Log_force { upto; records = !records; bytes = !bytes; pages });
      (* One device, one head: reserve the write slot before suspending
         so concurrent forces queue in arrival order, then pay the
         per-page writes. A lone forcer never waits — the single-fiber
         Section 5 measurements are unaffected. *)
      let write_cost =
        Cost_model.cost (Engine.cost_model t.engine)
          Cost_model.Stable_storage_write
      in
      let now = Engine.now t.engine in
      let start = max now t.device_free_at in
      t.device_free_at <- start + (pages * write_cost);
      if start > now then Engine.delay (start - now);
      for _ = 1 to pages do
        Engine.charge t.engine Cost_model.Stable_storage_write
      done
    end
  end

let force_all t = force t ~upto:(t.next - 1)

let read t lsn =
  if lsn >= t.buf_first && lsn < t.buf_first + t.buf_len then
    buf_get t (lsn - t.buf_first)
  else Record.decode (Stable.read t.stable lsn)

let iter_forward t ~from ~f =
  let stop = Stable.next t.stable in
  let rec go lsn =
    if lsn < stop then begin
      f lsn (Record.decode (Stable.read t.stable lsn));
      go (lsn + 1)
    end
  in
  go (max from (Stable.first t.stable))

let first_lsn t = Stable.first t.stable

(* A backward scan from the newest stable record, as at restart *)
let last_checkpoint t =
  let rec go lsn =
    if lsn < Stable.first t.stable then None
    else
      match Record.decode (Stable.read t.stable lsn) with
      | Record.Checkpoint _ -> Some lsn
      | _ -> go (lsn - 1)
  in
  go (Stable.next t.stable - 1)

let truncate t ~keep_from =
  Stable.truncate_prefix t.stable ~keep_from;
  Hashtbl.filter_map_inplace
    (fun _ lsn -> if lsn < keep_from then None else Some lsn)
    t.outcome_lsns

let force_count t = t.forces

let stable_bytes t = Stable.total_bytes t.stable
