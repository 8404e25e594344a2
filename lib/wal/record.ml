open Tabs_storage

type lsn = int

type update_value = {
  tid : Tid.t;
  obj : Object_id.t;
  old_value : string;
  new_value : string;
  prev : lsn option;
}

type update_operation = {
  tid : Tid.t;
  server : string;
  operation : string;
  undo_arg : string;
  redo_arg : string;
  pages : Disk.page_id list;
  prev : lsn option;
}

type checkpoint = {
  dirty_pages : (Disk.page_id * lsn) list;
  active_txns : (Tid.t * lsn option) list;
  prepared : (Tid.t * int) list;
  acceptor_floor : lsn option;
}

type t =
  | Update_value of update_value
  | Update_operation of update_operation
  | Txn_begin of Tid.t
  | Txn_commit of Tid.t
  | Txn_abort of Tid.t
  | Txn_prepare of Tid.t * int
  | Txn_end of Tid.t
  | Checkpoint of checkpoint
  | Paxos_promise of { tid : Tid.t; ballot : int }
  | Paxos_accept of { tid : Tid.t; part : int; ballot : int; yes : bool }
  | Paxos_decision of { tid : Tid.t; committed : bool }

(* Paxos acceptor records describe consensus state this node holds on
   behalf of a *foreign* transaction, not local update history, so they
   join no transaction chain and carry no tid for chain maintenance. *)
let tid_of = function
  | Update_value u -> Some u.tid
  | Update_operation u -> Some u.tid
  | Txn_begin tid | Txn_commit tid | Txn_abort tid | Txn_end tid -> Some tid
  | Txn_prepare (tid, _) -> Some tid
  | Checkpoint _ | Paxos_promise _ | Paxos_accept _ | Paxos_decision _ -> None

let kind = function
  | Update_value _ -> "update_value"
  | Update_operation _ -> "update_operation"
  | Txn_begin _ -> "begin"
  | Txn_commit _ -> "commit"
  | Txn_abort _ -> "abort"
  | Txn_prepare _ -> "prepare"
  | Txn_end _ -> "end"
  | Checkpoint _ -> "checkpoint"
  | Paxos_promise _ -> "paxos_promise"
  | Paxos_accept _ -> "paxos_accept"
  | Paxos_decision _ -> "paxos_decision"

(* Encoding --------------------------------------------------------- *)

(* The leaf types every record carries are written field by field: a
   tuple [map] would allocate a tuple per value on every log force. *)
let tid : Tid.t Codec.t =
  let path = Codec.(list int) in
  {
    write =
      (fun w (t : Tid.t) ->
        Codec.int.write w t.node;
        Codec.int.write w t.seq;
        path.write w t.path);
    read =
      (fun r ->
        let node = Codec.int.read r in
        let seq = Codec.int.read r in
        { node; seq; path = path.read r });
  }

let obj : Object_id.t Codec.t =
  {
    write =
      (fun w (o : Object_id.t) ->
        Codec.int.write w o.segment;
        Codec.int.write w o.offset;
        Codec.int.write w o.length);
    read =
      (fun r ->
        let segment = Codec.int.read r in
        let offset = Codec.int.read r in
        { segment; offset; length = Codec.int.read r });
  }

let page : Disk.page_id Codec.t =
  {
    write =
      (fun w (p : Disk.page_id) ->
        Codec.int.write w p.segment;
        Codec.int.write w p.page);
    read =
      (fun r ->
        let segment = Codec.int.read r in
        { segment; page = Codec.int.read r });
  }

let update_value =
  Codec.(map (pair (triple tid obj string) (pair string (option int))))
    ~read:(fun ((tid, obj, old_value), (new_value, prev)) ->
      { tid; obj; old_value; new_value; prev })
    ~write:(fun (u : update_value) ->
      ((u.tid, u.obj, u.old_value), (u.new_value, u.prev)))

let update_operation =
  Codec.(
    map
      (triple (triple tid string string) (pair string string)
         (pair (list page) (option int))))
    ~read:(fun ((tid, server, operation), (undo_arg, redo_arg), (pages, prev)) ->
      { tid; server; operation; undo_arg; redo_arg; pages; prev })
    ~write:(fun (u : update_operation) ->
      ( (u.tid, u.server, u.operation),
        (u.undo_arg, u.redo_arg),
        (u.pages, u.prev) ))

let checkpoint =
  Codec.(
    map
      (pair
         (triple
            (list (pair page int))
            (list (pair tid (option int)))
            (list (pair tid int)))
         (option int)))
    ~read:(fun ((dirty_pages, active_txns, prepared), acceptor_floor) ->
      { dirty_pages; active_txns; prepared; acceptor_floor })
    ~write:(fun c ->
      ((c.dirty_pages, c.active_txns, c.prepared), c.acceptor_floor))

let tid_int = Codec.(pair tid int)

let accept = Codec.(pair (triple tid int int) bool)

let decision = Codec.(pair tid bool)

(* A tag, then the constructor's payload. *)
let codec : t Codec.t =
  let tagged tag (c : _ Codec.t) w v =
    Codec.int.write w tag;
    c.write w v
  in
  {
    write =
      (fun w -> function
        | Update_value u -> tagged 0 update_value w u
        | Update_operation u -> tagged 1 update_operation w u
        | Txn_begin t -> tagged 2 tid w t
        | Txn_commit t -> tagged 3 tid w t
        | Txn_abort t -> tagged 4 tid w t
        | Txn_prepare (t, coordinator) -> tagged 5 tid_int w (t, coordinator)
        | Txn_end t -> tagged 6 tid w t
        | Checkpoint c -> tagged 7 checkpoint w c
        | Paxos_promise p -> tagged 8 tid_int w (p.tid, p.ballot)
        | Paxos_accept a -> tagged 9 accept w ((a.tid, a.part, a.ballot), a.yes)
        | Paxos_decision d -> tagged 10 decision w (d.tid, d.committed));
    read =
      (fun r ->
        match Codec.int.read r with
        | 0 -> Update_value (update_value.read r)
        | 1 -> Update_operation (update_operation.read r)
        | 2 -> Txn_begin (tid.read r)
        | 3 -> Txn_commit (tid.read r)
        | 4 -> Txn_abort (tid.read r)
        | 5 ->
            let t, coordinator = tid_int.read r in
            Txn_prepare (t, coordinator)
        | 6 -> Txn_end (tid.read r)
        | 7 -> Checkpoint (checkpoint.read r)
        | 8 ->
            let tid, ballot = tid_int.read r in
            Paxos_promise { tid; ballot }
        | 9 ->
            let (tid, part, ballot), yes = accept.read r in
            Paxos_accept { tid; part; ballot; yes }
        | 10 ->
            let tid, committed = decision.read r in
            Paxos_decision { tid; committed }
        | n -> raise (Codec.Reader.Malformed (Printf.sprintf "unknown tag %d" n)));
  }

let encode = Codec.encode codec

let decode = Codec.decode codec
