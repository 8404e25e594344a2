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
}

type dependency = {
  tid : Tid.t;
  update_lsn : lsn;
      (* the update record this dependency orders; always the
         immediately preceding LSN, so truncation and scan anchors can
         never keep the update while dropping its dependency record *)
  preds : (Object_id.t * lsn) list;
      (* per conflicting object, the last writer's update LSN — parallel
         redo must not apply [update_lsn] before all of these *)
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
  | Dependency of dependency

(* Paxos acceptor records describe consensus state this node holds on
   behalf of a *foreign* transaction, not local update history, so they
   join no transaction chain and carry no tid for chain maintenance.
   Dependency records annotate an update they follow; they are not part
   of the transaction's backward undo chain either. *)
let tid_of = function
  | Update_value u -> Some u.tid
  | Update_operation u -> Some u.tid
  | Txn_begin tid | Txn_commit tid | Txn_abort tid | Txn_end tid -> Some tid
  | Txn_prepare (tid, _) -> Some tid
  | Dependency d -> Some d.tid
  | Checkpoint _ | Paxos_promise _ | Paxos_accept _ | Paxos_decision _ -> None

(* Encoding --------------------------------------------------------- *)

let write_tid w (tid : Tid.t) =
  Codec.Writer.int w tid.node;
  Codec.Writer.int w tid.seq;
  Codec.Writer.list w Codec.Writer.int tid.path

let read_tid r : Tid.t =
  let node = Codec.Reader.int r in
  let seq = Codec.Reader.int r in
  let path = Codec.Reader.list r Codec.Reader.int in
  { node; seq; path }

let write_obj w (obj : Object_id.t) =
  Codec.Writer.int w obj.segment;
  Codec.Writer.int w obj.offset;
  Codec.Writer.int w obj.length

let read_obj r : Object_id.t =
  let segment = Codec.Reader.int r in
  let offset = Codec.Reader.int r in
  let length = Codec.Reader.int r in
  { segment; offset; length }

let write_page w (p : Disk.page_id) =
  Codec.Writer.int w p.segment;
  Codec.Writer.int w p.page

let read_page r : Disk.page_id =
  let segment = Codec.Reader.int r in
  let page = Codec.Reader.int r in
  { segment; page }

let encode t =
  let w = Codec.Writer.create () in
  (match t with
  | Update_value u ->
      Codec.Writer.int w 0;
      write_tid w u.tid;
      write_obj w u.obj;
      Codec.Writer.string w u.old_value;
      Codec.Writer.string w u.new_value;
      Codec.Writer.option w Codec.Writer.int u.prev
  | Update_operation u ->
      Codec.Writer.int w 1;
      write_tid w u.tid;
      Codec.Writer.string w u.server;
      Codec.Writer.string w u.operation;
      Codec.Writer.string w u.undo_arg;
      Codec.Writer.string w u.redo_arg;
      Codec.Writer.list w write_page u.pages;
      Codec.Writer.option w Codec.Writer.int u.prev
  | Txn_begin tid ->
      Codec.Writer.int w 2;
      write_tid w tid
  | Txn_commit tid ->
      Codec.Writer.int w 3;
      write_tid w tid
  | Txn_abort tid ->
      Codec.Writer.int w 4;
      write_tid w tid
  | Txn_prepare (tid, coordinator) ->
      Codec.Writer.int w 5;
      write_tid w tid;
      Codec.Writer.int w coordinator
  | Txn_end tid ->
      Codec.Writer.int w 6;
      write_tid w tid
  | Checkpoint c ->
      Codec.Writer.int w 7;
      Codec.Writer.list w
        (fun w (p, lsn) ->
          write_page w p;
          Codec.Writer.int w lsn)
        c.dirty_pages;
      Codec.Writer.list w
        (fun w (tid, lsn) ->
          write_tid w tid;
          Codec.Writer.option w Codec.Writer.int lsn)
        c.active_txns;
      Codec.Writer.list w
        (fun w (tid, coordinator) ->
          write_tid w tid;
          Codec.Writer.int w coordinator)
        c.prepared
  | Paxos_promise p ->
      Codec.Writer.int w 8;
      write_tid w p.tid;
      Codec.Writer.int w p.ballot
  | Paxos_accept a ->
      Codec.Writer.int w 9;
      write_tid w a.tid;
      Codec.Writer.int w a.part;
      Codec.Writer.int w a.ballot;
      Codec.Writer.int w (if a.yes then 1 else 0)
  | Paxos_decision d ->
      Codec.Writer.int w 10;
      write_tid w d.tid;
      Codec.Writer.int w (if d.committed then 1 else 0)
  | Dependency d ->
      Codec.Writer.int w 11;
      write_tid w d.tid;
      Codec.Writer.int w d.update_lsn;
      Codec.Writer.list w
        (fun w (obj, lsn) ->
          write_obj w obj;
          Codec.Writer.int w lsn)
        d.preds);
  Codec.Writer.contents w

let decode s =
  let r = Codec.Reader.of_string s in
  let t =
    match Codec.Reader.int r with
    | 0 ->
        let tid = read_tid r in
        let obj = read_obj r in
        let old_value = Codec.Reader.string r in
        let new_value = Codec.Reader.string r in
        let prev = Codec.Reader.option r Codec.Reader.int in
        Update_value { tid; obj; old_value; new_value; prev }
    | 1 ->
        let tid = read_tid r in
        let server = Codec.Reader.string r in
        let operation = Codec.Reader.string r in
        let undo_arg = Codec.Reader.string r in
        let redo_arg = Codec.Reader.string r in
        let pages = Codec.Reader.list r read_page in
        let prev = Codec.Reader.option r Codec.Reader.int in
        Update_operation { tid; server; operation; undo_arg; redo_arg; pages; prev }
    | 2 -> Txn_begin (read_tid r)
    | 3 -> Txn_commit (read_tid r)
    | 4 -> Txn_abort (read_tid r)
    | 5 ->
        let tid = read_tid r in
        let coordinator = Codec.Reader.int r in
        Txn_prepare (tid, coordinator)
    | 6 -> Txn_end (read_tid r)
    | 7 ->
        let dirty_pages =
          Codec.Reader.list r (fun r ->
              let p = read_page r in
              let lsn = Codec.Reader.int r in
              (p, lsn))
        in
        let active_txns =
          Codec.Reader.list r (fun r ->
              let tid = read_tid r in
              let lsn = Codec.Reader.option r Codec.Reader.int in
              (tid, lsn))
        in
        let prepared =
          Codec.Reader.list r (fun r ->
              let tid = read_tid r in
              let coordinator = Codec.Reader.int r in
              (tid, coordinator))
        in
        Checkpoint { dirty_pages; active_txns; prepared }
    | 8 ->
        let tid = read_tid r in
        let ballot = Codec.Reader.int r in
        Paxos_promise { tid; ballot }
    | 9 ->
        let tid = read_tid r in
        let part = Codec.Reader.int r in
        let ballot = Codec.Reader.int r in
        let yes = Codec.Reader.int r <> 0 in
        Paxos_accept { tid; part; ballot; yes }
    | 10 ->
        let tid = read_tid r in
        let committed = Codec.Reader.int r <> 0 in
        Paxos_decision { tid; committed }
    | 11 ->
        let tid = read_tid r in
        let update_lsn = Codec.Reader.int r in
        let preds =
          Codec.Reader.list r (fun r ->
              let obj = read_obj r in
              let lsn = Codec.Reader.int r in
              (obj, lsn))
        in
        Dependency { tid; update_lsn; preds }
    | n -> raise (Codec.Reader.Malformed (Printf.sprintf "unknown tag %d" n))
  in
  if not (Codec.Reader.at_end r) then
    raise (Codec.Reader.Malformed "trailing bytes");
  t

let pp fmt = function
  | Update_value u ->
      Format.fprintf fmt "@[value-update %a %a (%d->%d bytes)@]" Tid.pp u.tid
        Object_id.pp u.obj
        (String.length u.old_value)
        (String.length u.new_value)
  | Update_operation u ->
      Format.fprintf fmt "@[op-update %a %s.%s@]" Tid.pp u.tid u.server
        u.operation
  | Txn_begin tid -> Format.fprintf fmt "begin %a" Tid.pp tid
  | Txn_commit tid -> Format.fprintf fmt "commit %a" Tid.pp tid
  | Txn_abort tid -> Format.fprintf fmt "abort %a" Tid.pp tid
  | Txn_prepare (tid, c) -> Format.fprintf fmt "prepare %a coord=%d" Tid.pp tid c
  | Txn_end tid -> Format.fprintf fmt "end %a" Tid.pp tid
  | Checkpoint c ->
      Format.fprintf fmt
        "checkpoint (%d dirty pages, %d active txns, %d prepared)"
        (List.length c.dirty_pages)
        (List.length c.active_txns)
        (List.length c.prepared)
  | Paxos_promise p ->
      Format.fprintf fmt "paxos-promise %a b=%d" Tid.pp p.tid p.ballot
  | Paxos_accept a ->
      Format.fprintf fmt "paxos-accept %a part=%d b=%d %s" Tid.pp a.tid a.part
        a.ballot
        (if a.yes then "prepared" else "aborted")
  | Paxos_decision d ->
      Format.fprintf fmt "paxos-decision %a %s" Tid.pp d.tid
        (if d.committed then "commit" else "abort")
  | Dependency d ->
      Format.fprintf fmt "dependency %a for %d (%d preds)" Tid.pp d.tid
        d.update_lsn (List.length d.preds)
