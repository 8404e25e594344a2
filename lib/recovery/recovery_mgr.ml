open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_accent

type txn_status = Committed | Aborted | Prepared of int | Active

type Trace.event +=
  | Rm_checkpoint of {
      node : int;
      lsn : int;
      dirty : int;
      active : int;
      prepared : int;
    }
  | Rm_recovered of {
      node : int;
      scanned : int;
      losers : int;
      in_doubt : int;
    }
  | Rm_ondemand_redo of {
      node : int;
      segment : int;
      page : int;
      records : int; (* parked chain records drained by this replay *)
      via : string; (* "fault" (first touch) or "trickle" (background) *)
      pending : int; (* per-page chains still parked afterwards *)
    }

type op_handler = { redo : op:string -> arg:string -> unit;
                    undo : op:string -> arg:string -> unit }

type recovery_outcome = {
  losers : Tid.t list;
  in_doubt : (Tid.t * int) list;
  statuses : (Tid.t * txn_status) list; (* top-level tids, sorted *)
  written_objects : (Tid.t * Object_id.t) list;
  records_scanned : int;
  replay_us : int;
      (* virtual time spent in the redo and undo passes — excludes the
         analysis scan, so fiber fan-out is visible in isolation *)
  graph : Parallel_redo.stats; (* shape of the redo graph this restart built *)
  paxos : (Record.lsn * Record.t) list;
      (* surviving Paxos Commit acceptor state, already re-appended and
         held as the acceptor floor through the restart's close; the TM
         reseeds its acceptor from these (the LSNs restore its floor) *)
  open_early : bool;
      (* instant restart: the node opened after analysis with redo
         parked per page; false after a full (eager) replay *)
  time_to_open_us : int;
      (* virtual time from entering [recover] until the node could
         accept transactions — the whole recovery for an eager restart,
         analysis + bookkeeping only for an instant one *)
}

type analysis = {
  records : (Record.lsn * Record.t) array;
  statuses : (Tid.t, txn_status) Hashtbl.t; (* top-level tids *)
  aborted : (Tid.t, unit) Hashtbl.t; (* incl. subtransactions *)
}

(* Instant restart's parked replay: the restart's redo graph, drained a
   page at a time behind the Vm access gate and by the trickle. *)
type ondemand = {
  graph : Parallel_redo.t;
  apply : Parallel_redo.phase -> int -> unit;
  mutable owner : int; (* fiber id mid-replay; -1 when free *)
  latch : unit Engine.Waitq.t;
}

type t = {
  engine : Engine.t;
  node : int;
  profile : Profile.t;
  log : Log_manager.t;
  vm : Vm.t;
  group_commit : Group_commit.t option;
  mutable checkpointer : Checkpointer.t option;
  mutable daemon_cks : (Record.lsn * Record.lsn) list;
      (* unforced daemon checkpoints with their anchor floors, newest first *)
  log_space_limit : int;
  op_handlers : (string, op_handler) Hashtbl.t;
  mutable active_txns_source : unit -> Tid.t list;
  mutable prepared_source : unit -> (Tid.t * int) list;
  mutable last_background_flush : int;
  mutable truncation_floor_source : unit -> Record.lsn option;
      (* the TM's Paxos acceptor supplies the oldest log record that
         still backs undecided consensus state — those records belong to
         no transaction chain, so reclamation would otherwise eat them *)
  mutable paxos_floor : Record.lsn option;
      (* oldest acceptor record [recover] re-appended: held down until
         the restart's close (the TM's own floor takes over by then) *)
  fibers : int; (* eager restart's redo fan-out; 1 drains inline *)
  instant : bool;
  mutable ondemand : ondemand option;
      (* Some while an instant restart's chains are still parked *)
  mutable apply_hook : (phase:string -> lsn:Record.lsn -> unit) option;
      (* test instrumentation: observes every redo/undo application, in
         order, whatever the schedule *)
  mutable recovering : bool;
      (* true from the start of [recover] until the log's chain table is
         restored. [Log_manager.attach] starts the table empty, so any
         truncation decided in that window would see no live chains and
         reclaim records that in-doubt transactions still need for undo;
         the flag pins the reclamation floor and holds the checkpoint
         daemon's cycle gate closed until restoration completes. *)
  open_q : unit Engine.Waitq.t;
      (* fibers parked in [await_open], woken when [recover] returns *)
}

let log t = t.log

let register_op_handler t ~server handler =
  Hashtbl.replace t.op_handlers server handler

let set_active_txns_source t f = t.active_txns_source <- f

let set_prepared_source t f = t.prepared_source <- f

let set_truncation_floor_source t f = t.truncation_floor_source <- f

let set_apply_hook t f = t.apply_hook <- f

let min_opt a b =
  match (a, b) with None, f | f, None -> f | Some a, Some b -> Some (min a b)

(* The oldest log record backing Paxos acceptor state: the TM's floor,
   and until a restart's close the records [recover] re-appended. *)
let acceptor_floor t = min_opt t.paxos_floor (t.truncation_floor_source ())

(* What truncation keeps besides a checkpoint's anchor floor: the
   acceptor floor, or, until the chain table is restored (see
   [recovering]), everything, so any truncation is a no-op. *)
let reclamation_floor t =
  if t.recovering then Some (Log_manager.first_lsn t.log)
  else acceptor_floor t

let hook t phase lsn =
  match t.apply_hook with None -> () | Some f -> f ~phase ~lsn

let small_msg t = Engine.charge t.engine Cost_model.Small_contiguous_message

(* A Transaction Manager -> Recovery Manager hop. On a Classic node it
   is an Accent small message; on an Integrated node (the Section 5.3
   "Improved TABS Architecture") the two managers share the kernel's
   process, so the hop is a direct call whose would-be cost is counted
   as elided. *)
let tm_rm_msg t =
  match t.profile with
  | Profile.Classic -> small_msg t
  | Profile.Integrated ->
      Engine.elide t.engine Cost_model.Small_contiguous_message

(* The commit-protocol force (local commit records, 2PC commit and
   prepare records). With group commit enabled the caller joins the
   node's force batch instead of paying its own stable-storage round;
   either way, on return the log is stable through [lsn]. Page-outs and
   [checkpoint] force through it too: one writer for forward processing. *)
let force_through t lsn =
  match t.group_commit with
  | None -> Log_manager.force t.log ~upto:lsn
  | Some gc -> Group_commit.force_through gc ~upto:lsn

(* The Recovery Manager's side of the kernel <-> Recovery Manager
   paging protocol of Section 3.2.1. The kernel ({!Vm}) owns the
   protocol's message costs and the page's last LSN; here the
   write-ahead rule itself remains (force the log through the sequence
   number the kernel is about to stamp before it may write), plus the
   recovery-LSN capture at first modification: the dirtying update's
   record is not appended yet, so the next LSN to be issued is the
   conservative bound a fuzzy checkpoint taken in that window must
   report. *)
let wal_hooks t =
  {
    Vm.on_first_dirty =
      (fun pid -> Vm.note_rec_lsn t.vm pid ~lsn:(Log_manager.next_lsn t.log));
    before_page_out = (fun ~seqno -> force_through t seqno);
  }

let maybe_poke_checkpointer t =
  match t.checkpointer with
  | Some cp -> Checkpointer.poke cp
  | None -> ()

(* Forward processing ------------------------------------------------- *)

let log_value t ~tid ~obj ~old_value ~new_value =
  if not (Object_id.fits_one_page obj) then
    invalid_arg "Recovery_mgr.log_value: object spans pages (use operation \
                 logging)";
  (* The server sends the buffered old value and the new value to the
     Recovery Manager in one large message; the RM spools it. *)
  Engine.charge t.engine Cost_model.Large_contiguous_message;
  Engine.charge_cpu t.engine ~process:"rm" Overheads.rm_spool_write;
  let lsn = Log_manager.append_value t.log ~tid ~obj ~old_value ~new_value in
  Vm.note_update t.vm obj ~lsn;
  maybe_poke_checkpointer t;
  lsn

let log_operation t ~tid ~server ~op ~undo_arg ~redo_arg ~objs =
  Engine.charge t.engine Cost_model.Large_contiguous_message;
  Engine.charge_cpu t.engine ~process:"rm" Overheads.rm_spool_write;
  let pages = List.concat_map Object_id.pages objs in
  let lsn =
    Log_manager.append_operation t.log ~tid ~server ~operation:op ~undo_arg
      ~redo_arg ~pages
  in
  List.iter (fun obj -> Vm.note_update t.vm obj ~lsn) objs;
  maybe_poke_checkpointer t;
  lsn

(* The kernel writes modified pages back to their segments as paging
   activity allows (the paper measured 0.86 page I/Os per update
   transaction from this background traffic). Modeled as a short-lived
   cleaning fiber kicked at most once per interval when transactions
   commit, so the simulation still quiesces. A configured checkpoint
   daemon supersedes it: its trickle write-back is this same traffic,
   ordered to raise the log-truncation floor. *)
let background_flush_interval = 250_000

let maybe_background_flush t =
  let now = Engine.now t.engine in
  if
    Option.is_none t.checkpointer
    && now - t.last_background_flush >= background_flush_interval
  then begin
    t.last_background_flush <- now;
    ignore (Engine.spawn t.engine ~node:t.node (fun () -> Vm.flush_all t.vm))
  end

let append_tm_record t record =
  (* Transaction Manager -> Recovery Manager traffic: a message on
     Classic nodes, a direct call on Integrated ones. *)
  tm_rm_msg t;
  (match record with
  | Record.Txn_begin _ -> maybe_background_flush t
  | _ -> ());
  maybe_poke_checkpointer t;
  Log_manager.append t.log record

let group_commit t = t.group_commit

let checkpointer t = t.checkpointer

(* Undo/redo application ---------------------------------------------- *)

let restore_value t obj value =
  Vm.pin t.vm obj ~access:`Random;
  Vm.write t.vm obj value;
  Vm.unpin t.vm obj

let op_handler t server =
  match Hashtbl.find_opt t.op_handlers server with
  | Some h -> h
  | None ->
      failwith
        (Printf.sprintf
           "Recovery_mgr: no operation handler registered for server %S"
           server)

(* Abort -------------------------------------------------------------- *)

let abort t ~tid =
  let rec walk = function
    | None -> ()
    | Some lsn -> (
        match Log_manager.read t.log lsn with
        | Record.Update_value u ->
            (* instruct the owning server to undo (one message), then
               restore the old image *)
            small_msg t;
            restore_value t u.obj u.old_value;
            Vm.note_update t.vm u.obj ~lsn;
            walk u.prev
        | Record.Update_operation u ->
            small_msg t;
            (op_handler t u.server).undo ~op:u.operation ~arg:u.undo_arg;
            Vm.note_pages t.vm u.pages ~lsn;
            walk u.prev
        | _ -> assert false)
  in
  walk (Log_manager.last_lsn_of t.log tid);
  ignore (Log_manager.append t.log (Record.Txn_abort tid))

(* Checkpoints and reclamation ---------------------------------------- *)

(* Where analysis anchored at checkpoint [c], written at [lsn], starts:
   no record below the checkpoint, its dirty pages' recovery LSNs, its
   transaction families' first-update LSNs, and its acceptor floor is
   needed. *)
let anchor_floor lsn (c : Record.checkpoint) =
  let floor = List.fold_left (fun acc (_, r) -> min acc r) lsn c.dirty_pages in
  let floor =
    match c.acceptor_floor with Some f -> min floor f | None -> floor
  in
  List.fold_left
    (fun acc (_, first) -> match first with Some f -> min acc f | None -> acc)
    floor c.active_txns

(* A fuzzy checkpoint: record where recovery would have to start —
   the dirty pages with their recovery LSNs, the first-update LSN of
   every live transaction family, the unresolved prepared participants,
   and the acceptor floor — without writing a single data page. The family
   first-LSNs come from the log's own chain table, which also covers
   rigs and restart windows where no Transaction Manager source is
   wired. [prepared] is the Transaction Manager's in-doubt set, except
   at an eager restart's close, which runs before the TM has re-learned
   it and passes the restart's own. The record is appended unforced;
   returns its LSN and anchor floor. *)
let checkpoint_with t ~prepared =
  let dirty_pages = Vm.dirty_pages t.vm in
  (* Parked instant-restart chains are recovery work this checkpoint
     must keep reachable: report each still-pending page at its chain's
     oldest record, as if dirty at that recovery LSN, so a re-crash in
     the serving window re-anchors below the parked redo. *)
  let dirty_pages =
    match t.ondemand with
    | None -> dirty_pages
    | Some st ->
        let merged = Hashtbl.create 32 in
        List.iter (fun (pid, r) -> Hashtbl.replace merged pid r) dirty_pages;
        List.iter
          (fun (f, pid) ->
            match Hashtbl.find_opt merged pid with
            | Some r when r <= f -> ()
            | Some _ | None -> Hashtbl.replace merged pid f)
          (Parallel_redo.pending st.graph);
        Hashtbl.fold (fun pid r acc -> (pid, r) :: acc) merged []
        |> List.sort compare
  in
  (* The TM's view of which transactions are live lags the log: while a
     commit force is in flight the commit record is appended but the TM
     has not yet recorded the outcome. A checkpoint taken in that window
     must not list the decided transaction — at restart its outcome
     record would sit below the scan anchor and the seeded entry would
     surface as a phantom loser. The log is the authority. *)
  let undecided tid =
    not (Log_manager.has_appended_outcome t.log (Tid.top_level tid))
  in
  let prepared =
    List.sort compare
      (List.filter (fun (tid, _) -> undecided tid) prepared)
  in
  (* oldest first-update LSN per top-level family, from per-tid chains *)
  let family_first = Hashtbl.create 16 in
  List.iter
    (fun (tid, first) ->
      let top = Tid.top_level tid in
      match Hashtbl.find_opt family_first top with
      | Some f when f <= first -> ()
      | Some _ | None -> Hashtbl.replace family_first top first)
    (Log_manager.live_chain_firsts t.log);
  let active_txns =
    List.sort_uniq compare
      (List.filter undecided (t.active_txns_source ())
      @ List.map fst prepared
      @ Hashtbl.fold (fun top _ acc -> top :: acc) family_first [])
    |> List.map (fun top -> (top, Hashtbl.find_opt family_first top))
  in
  let c =
    {
      Record.dirty_pages;
      active_txns;
      prepared;
      acceptor_floor = acceptor_floor t;
    }
  in
  let lsn = Log_manager.append t.log (Record.Checkpoint c) in
  if Engine.tracing t.engine then
    Engine.emit t.engine
      (Rm_checkpoint
         {
           node = t.node;
           lsn;
           dirty = List.length dirty_pages;
           active = List.length active_txns;
           prepared = List.length prepared;
         });
  (lsn, anchor_floor lsn c)

(* Stable on return, through the commit-protocol force. *)
let checkpoint t =
  force_through t (fst (checkpoint_with t ~prepared:(t.prepared_source ())))

(* Truncate the log below [anchor], a checkpoint's anchor floor, keeping
   every live update chain, the recovery LSN of every page still dirty
   (pinned pages can survive a flush), and [floor]. Returns the
   truncation point and how many records it reclaimed (not positive when
   nothing goes). *)
let truncate_below t ~anchor ~floor =
  let keep_from =
    List.fold_left min anchor
      (Option.to_list (min_opt (Log_manager.oldest_first_lsn t.log) floor)
      @ List.map snd (Vm.dirty_pages t.vm))
  in
  let reclaimed = keep_from - Log_manager.first_lsn t.log in
  Log_manager.truncate t.log ~keep_from;
  (keep_from, reclaimed)

(* Reclamation "may force pages back to disk before they would otherwise
   be written": flush, checkpoint, and truncate below its anchor floor.
   [prepared] is read once the flush is done and [floor] once the
   checkpoint is stable: the flush and the checkpoint's force both
   suspend. *)
let reclaim t ~prepared ~floor =
  Vm.flush_all t.vm;
  let _, anchor = checkpoint_with t ~prepared:(prepared ()) in
  Log_manager.force_all t.log;
  ignore (truncate_below t ~anchor ~floor:(floor ()))

(* The daemon's checkpoint rides the next commit force. The cycle
   truncates below the newest daemon checkpoint already stable, the one
   a crash now anchors at, at that checkpoint's floor as appended: a
   transaction it lists may since have appended a commit that is not
   stable yet, so today's chains no longer show it. *)
let daemon_cycle t =
  let stable, volatile =
    List.partition
      (fun (lsn, _) -> lsn < Log_manager.flushed_lsn t.log)
      (checkpoint_with t ~prepared:(t.prepared_source ()) :: t.daemon_cks)
  in
  t.daemon_cks <- volatile;
  match stable with
  | [] -> (Log_manager.first_lsn t.log, 0)
  | (_, anchor) :: _ -> truncate_below t ~anchor ~floor:(reclamation_floor t)

let maybe_reclaim t =
  if Log_manager.stable_bytes t.log <= t.log_space_limit then false
  else
    match t.checkpointer with
    | Some cp ->
        (* the daemon reclaims in the background; the foreground
           transaction neither flushes nor waits *)
        Checkpointer.request cp;
        false
    | None ->
        reclaim t ~prepared:t.prepared_source
          ~floor:(fun () -> reclamation_floor t);
        true

let create engine ~node ~log ~vm ?(profile = Profile.Classic)
    ?group_commit ?checkpointing ?(log_space_limit = 256 * 1024)
    ?parallel_recovery ?(instant_restart = false) () =
  let t =
    {
      engine;
      node;
      profile;
      log;
      vm;
      group_commit =
        Option.map (fun _ -> Group_commit.create engine ~node ~log) group_commit;
      checkpointer = None;
      daemon_cks = [];
      log_space_limit;
      op_handlers = Hashtbl.create 8;
      active_txns_source = (fun () -> []);
      prepared_source = (fun () -> []);
      last_background_flush = 0;
      truncation_floor_source = (fun () -> None);
      paxos_floor = None;
      fibers = Option.value parallel_recovery ~default:1;
      instant = instant_restart;
      ondemand = None;
      apply_hook = None;
      recovering = false;
      open_q = Engine.Waitq.create ();
    }
  in
  Vm.set_wal_hooks vm (wal_hooks t);
  t.checkpointer <-
    Option.map
      (fun interval ->
        Checkpointer.create engine ~node ~vm
          ~checkpoint_and_truncate:(fun () -> daemon_cycle t)
          ~gate:(fun () -> not t.recovering)
          ~interval)
      checkpointing;
  t

(* Crash recovery ------------------------------------------------------ *)

let set_status a top status = Hashtbl.replace a.statuses top status

(* Did a logged abort cover [tid] — itself or any ancestor? Probed by
   path prefix against the abort set, so the cost per record is the
   nesting depth, not the number of aborts on the log. *)
let covered_by_abort a (tid : Tid.t) =
  let rec go prefix_rev rest =
    Hashtbl.mem a.aborted { tid with Tid.path = List.rev prefix_rev }
    ||
    match rest with [] -> false | x :: tl -> go (x :: prefix_rev) tl
  in
  go [] tid.Tid.path

(* The newest stable checkpoint, if its record is still readable. *)
let scan_anchor t =
  match Log_manager.last_checkpoint t.log with
  | None -> None
  | Some lsn -> (
      match Log_manager.read t.log lsn with
      | Record.Checkpoint c -> Some (lsn, c)
      | _ -> None
      | exception Not_found -> None)

(* Forward scan of the live stable log: collect records, resolve each
   top-level transaction's fate, and remember individually aborted
   subtransactions.

   Anchored at the last checkpoint, the scan starts at the minimum of
   the checkpoint's own LSN, its dirty pages' recovery LSNs, its
   transaction families' first-update LSNs, and its acceptor floor (the
   Paxos acceptor records belong to no family): every record below that
   either belongs to a finished transaction whose effects the segments
   already reflect (its pages were clean, or their recovery LSNs were
   higher), or to nothing recovery cares about. Statuses are seeded from
   the checkpoint — prepared participants first, since their prepare
   records may predate the scan — and records scanned afterwards
   override the seeds. Without a checkpoint the scan covers the whole
   live log. *)
let analyze t =
  let anchor = scan_anchor t in
  let scan_from =
    match anchor with
    | None -> Log_manager.first_lsn t.log
    | Some (lsn, c) -> max (Log_manager.first_lsn t.log) (anchor_floor lsn c)
  in
  let acc = ref [] in
  let bytes = ref 0 in
  let stable = Log_manager.stable t.log in
  Log_manager.iter_forward t.log ~from:scan_from ~f:(fun lsn record ->
      bytes := !bytes + String.length (Stable.read stable lsn);
      acc := (lsn, record) :: !acc);
  (* reading the log back is sequential I/O, one read per log page *)
  for _ = 1 to (!bytes + Page.size - 1) / Page.size do
    Engine.charge t.engine Cost_model.Sequential_read
  done;
  let a =
    {
      records = Array.of_list (List.rev !acc);
      statuses = Hashtbl.create 64;
      aborted = Hashtbl.create 16;
    }
  in
  (match anchor with
  | None -> ()
  | Some (_, c) ->
      List.iter
        (fun (tid, coordinator) ->
          set_status a (Tid.top_level tid) (Prepared coordinator))
        c.prepared;
      List.iter
        (fun (tid, _) ->
          let top = Tid.top_level tid in
          if not (Hashtbl.mem a.statuses top) then set_status a top Active)
        c.active_txns);
  Array.iter
    (fun (_, record) ->
      match record with
      | Record.Txn_begin tid | Record.Update_value { tid; _ }
      | Record.Update_operation { tid; _ } ->
          let top = Tid.top_level tid in
          if not (Hashtbl.mem a.statuses top) then set_status a top Active
      | Record.Txn_prepare (tid, coordinator) ->
          set_status a (Tid.top_level tid) (Prepared coordinator)
      | Record.Txn_commit tid -> set_status a (Tid.top_level tid) Committed
      | Record.Txn_abort tid ->
          Hashtbl.replace a.aborted tid ();
          if Tid.is_top tid then set_status a tid Aborted
      | Record.Txn_end _ | Record.Checkpoint _ | Record.Paxos_promise _
      | Record.Paxos_accept _ | Record.Paxos_decision _ ->
          (* Paxos acceptor records track consensus on foreign
             transactions, not local transaction status *)
          ())
    a.records;
  a

(* An update by [tid] survives iff no logged abort covers it and its
   top-level transaction committed or prepared. *)
let winner a tid =
  (not (covered_by_abort a tid))
  &&
  match Hashtbl.find_opt a.statuses (Tid.top_level tid) with
  | Some (Committed | Prepared _) -> true
  | Some (Aborted | Active) | None -> false

(* Apply record [i] of the analysis in [phase], unless a sector-seqno
   gate finds nothing to do. Every schedule of the redo graph calls
   this, so its body is the paper's two techniques, record by record.

   Operation logging repeats history forward, gated by the sector
   sequence numbers so already-reflected effects are skipped, then
   undoes losers backward; history was repeated first, so every loser
   effect is present.

   Value logging is a single backward pass: the newest record for an
   object decides it. A winner's new value finalizes the object; loser
   records keep restoring older old-values until the oldest one — whose
   old value is the last committed image — has been applied. The
   restores are gated by the sector sequence numbers too: a winner
   whose page already carries a sequence number at or past its LSN is
   on disk exactly as logged (the page-out snapshot covers every update
   noted by then, and winners are never undone in place), so nothing
   need be read or written; a loser whose page's sequence number is
   below its LSN never reached the segment, so there is nothing to undo
   and the walk continues toward the last committed image. *)
let apply_record t a finalized phase i =
  let seqno pid = Disk.seqno (Vm.disk t.vm) pid in
  match (phase, a.records.(i)) with
  | Parallel_redo.Op_redo, (lsn, Record.Update_operation u) ->
      if u.pages = [] || List.exists (fun pid -> seqno pid < lsn) u.pages
      then begin
        hook t "op_redo" lsn;
        small_msg t;
        (op_handler t u.server).redo ~op:u.operation ~arg:u.redo_arg;
        Vm.note_pages t.vm u.pages ~lsn
      end
  | Parallel_redo.Op_undo, (lsn, Record.Update_operation u) ->
      hook t "op_undo" lsn;
      small_msg t;
      (op_handler t u.server).undo ~op:u.operation ~arg:u.undo_arg;
      Vm.note_pages t.vm u.pages ~lsn
  | Parallel_redo.Value, (lsn, Record.Update_value u)
    when not (Hashtbl.mem finalized u.obj) ->
      (* value-logged objects fit one page (checked at log_value) *)
      let pages = Object_id.pages u.obj in
      let on_disk = List.for_all (fun pid -> seqno pid >= lsn) pages in
      let restore phase value =
        hook t phase lsn;
        restore_value t u.obj value;
        Vm.note_pages t.vm pages ~lsn
      in
      if winner a u.tid then begin
        if not on_disk then restore "value_redo" u.new_value;
        Hashtbl.replace finalized u.obj ()
      end
      else if on_disk then restore "value_undo" u.old_value
  | _ -> ()

let resolve_outcome t a =
  (* Roll-back records for the losers that never logged an outcome. *)
  let losers =
    Hashtbl.fold
      (fun tid status acc -> if status = Active then tid :: acc else acc)
      a.statuses []
    |> List.sort Tid.compare
  in
  List.iter
    (fun tid -> ignore (Log_manager.append t.log (Record.Txn_abort tid)))
    losers;
  let in_doubt =
    Hashtbl.fold
      (fun tid status acc ->
        match status with Prepared c -> (tid, c) :: acc | _ -> acc)
      a.statuses []
    |> List.sort compare
  in
  let in_doubt_tops = Hashtbl.create 8 in
  List.iter (fun (tid, _) -> Hashtbl.replace in_doubt_tops tid ()) in_doubt;
  let written_objects =
    Array.to_list a.records
    |> List.filter_map (fun (_, record) ->
           match record with
           | Record.Update_value u
             when Hashtbl.mem in_doubt_tops (Tid.top_level u.tid) ->
               Some (u.tid, u.obj)
           | _ -> None)
  in
  (* In-doubt transactions may yet be told to abort by their
     coordinator: re-register their update chains so a later
     [abort] can walk them. *)
  let chains = Hashtbl.create 8 in
  Array.iter
    (fun (lsn, record) ->
      match record with
      | (Record.Update_value { tid; _ } | Record.Update_operation { tid; _ })
        when Hashtbl.mem in_doubt_tops (Tid.top_level tid) -> (
          match Hashtbl.find_opt chains tid with
          | None -> Hashtbl.add chains tid (lsn, lsn)
          | Some (first, _) -> Hashtbl.replace chains tid (first, lsn))
      | _ -> ())
    a.records;
  (* sorted: hashtable iteration order depends on tid hashing, and the
     restore order must not vary between runs of the same crash *)
  let chains =
    Hashtbl.fold (fun tid (first, last) acc -> (tid, first, last) :: acc)
      chains []
    |> List.sort compare
  in
  List.iter
    (fun (tid, first, last) -> Log_manager.restore_chain t.log ~tid ~first ~last)
    chains;
  (losers, in_doubt, written_objects)

(* Paxos Commit acceptor state must survive post-restart reclamation: it
   belongs to no local transaction chain, so the keep_from floor would
   eat it. Condense it — for a decided transaction only the decision
   matters; for an undecided one the highest promise and the highest-
   ballot accept per participant instance — so it can be re-appended
   above the reclaimed prefix, where truncation cannot reach. *)
let condense_paxos a =
    let promises = Hashtbl.create 4 (* tid -> max ballot *) in
    let accepts = Hashtbl.create 4 (* (tid, part) -> (ballot, yes) *) in
    let decisions = Hashtbl.create 4 (* tid -> committed *) in
    let tids = ref [] in
    let note tid = if not (List.mem tid !tids) then tids := tid :: !tids in
    Array.iter
      (fun (_, record) ->
        match record with
        | Record.Paxos_promise { tid; ballot } ->
            note tid;
            let prev =
              Option.value (Hashtbl.find_opt promises tid) ~default:(-1)
            in
            if ballot > prev then Hashtbl.replace promises tid ballot
        | Record.Paxos_accept { tid; part; ballot; yes } ->
            note tid;
            let prev =
              match Hashtbl.find_opt accepts (tid, part) with
              | Some (b, _) -> b
              | None -> -1
            in
            if ballot >= prev then Hashtbl.replace accepts (tid, part) (ballot, yes)
        | Record.Paxos_decision { tid; committed } ->
            note tid;
            Hashtbl.replace decisions tid committed
        | _ -> ())
      a.records;
    List.concat_map
      (fun tid ->
        match Hashtbl.find_opt decisions tid with
        | Some committed -> [ Record.Paxos_decision { tid; committed } ]
        | None ->
            let promise =
              match Hashtbl.find_opt promises tid with
              | Some ballot -> [ Record.Paxos_promise { tid; ballot } ]
              | None -> []
            in
            promise
            @ (Hashtbl.fold
                 (fun (t', part) (ballot, yes) acc ->
                   if Tid.equal t' tid then (part, ballot, yes) :: acc
                   else acc)
                 accepts []
              (* sorted by participant: the re-appended acceptor records
                 land on the log in a hash-order-free, reproducible
                 sequence *)
              |> List.sort compare
              |> List.map (fun (part, ballot, yes) ->
                     Record.Paxos_accept { tid; part; ballot; yes })))
      (List.sort Tid.compare !tids)

(* Restart schedules ---------------------------------------------------- *)

(* Every restart builds one redo graph and differs only in when it is
   drained. Eager: both redo phases over the configured fibers — one,
   inline, when parallel recovery is off — then loser undo inline
   (losers are few: fanning them out would buy little and move every
   restart timing), all before the node opens. *)
let replay_eagerly t g apply =
  let redo phase =
    Parallel_redo.drain_over g phase t.engine ~node:t.node ~fibers:t.fibers
      ~apply:(apply phase)
  in
  redo Parallel_redo.Op_redo;
  redo Parallel_redo.Value;
  Parallel_redo.drain g Parallel_redo.Op_undo
    ~apply:(apply Parallel_redo.Op_undo)

(* Instant: replay one parked page's closure, then retire every page it
   completed — cross-page closures can complete neighbours too. *)
let recover_page t st pid ~via =
  st.owner <- Engine.fiber_id t.engine;
  let records = Parallel_redo.drain_page st.graph pid ~apply:st.apply in
  let m = Metrics.recovery (Engine.metrics t.engine) ~node:t.node in
  let completed = Parallel_redo.settle st.graph in
  (match via with
  | `Fault -> m.Metrics.ondemand_pages <- m.Metrics.ondemand_pages + completed
  | `Trickle -> m.Metrics.trickle_pages <- m.Metrics.trickle_pages + completed);
  let pending = Parallel_redo.pending_count st.graph in
  m.Metrics.pending_pages <- pending;
  if Engine.tracing t.engine then
    Engine.emit t.engine
      (Rm_ondemand_redo
         {
           node = t.node;
           segment = pid.Disk.segment;
           page = pid.Disk.page;
           records;
           via = (match via with `Fault -> "fault" | `Trickle -> "trickle");
           pending;
         });
  st.owner <- -1;
  ignore (Engine.Waitq.signal_all st.latch ~engine:t.engine ())

(* The Vm access gate. Every page access lands here first; if the
   page's chain is parked, the accessor replays it before proceeding.
   One replay at a time node-wide — the graph state is shared — so a
   second accessor waits on the latch; the owner's own nested faults
   (replay pins pages too) pass straight through. *)
let ondemand_gate t pid =
  match t.ondemand with
  | None -> ()
  | Some st ->
      if st.owner <> Engine.fiber_id t.engine then begin
        while st.owner >= 0 do
          Engine.Waitq.wait st.latch
        done;
        if Parallel_redo.is_pending st.graph pid then
          recover_page t st pid ~via:`Fault
      end

(* The one restart close, once every chain is drained: flush the
   recovered state, write the fuzzy checkpoint, and reclaim the scanned
   history. An eager restart closes here before the node opens; an
   instant one when its trickle finishes. In-doubt chains stay walkable
   for a late Abort verdict (the restored chain table holds the floor at
   them). The re-appended Paxos acceptor records sit below this
   checkpoint: its acceptor floor keeps them in the next restart's scan,
   and truncation keeps them too. Then the TM's own floor takes over. *)
let finalize t ~prepared =
  t.ondemand <- None;
  Vm.set_on_fault t.vm None;
  reclaim t ~prepared ~floor:(fun () -> acceptor_floor t);
  t.paxos_floor <- None

let trickle_pause = 10_000

(* Background drain: oldest parked chain first (its records pin the
   log-truncation floor), one page per pause, chosen hash-order-free so
   runs of the same crash replay identically. Spawned on the node, so a
   crash in the window kills it with the incarnation. *)
let rec trickle_loop t st =
  while st.owner >= 0 do
    Engine.Waitq.wait st.latch
  done;
  match List.sort compare (Parallel_redo.pending st.graph) with
  | [] -> finalize t ~prepared:t.prepared_source
  | (_, pid) :: _ ->
      recover_page t st pid ~via:`Trickle;
      if Parallel_redo.pending_count st.graph > 0 then
        Engine.delay trickle_pause;
      trickle_loop t st

(* Instant: open now, with the graph parked behind the access gate.
   First touch drains a page's closure; the trickle drains the rest. *)
let park t g apply =
  let st =
    { graph = g; apply; owner = -1; latch = Engine.Waitq.create () }
  in
  t.ondemand <- Some st;
  Vm.set_on_fault t.vm (Some (fun pid -> ondemand_gate t pid));
  ignore (Engine.spawn t.engine ~node:t.node (fun () -> trickle_loop t st));
  let m = Metrics.recovery (Engine.metrics t.engine) ~node:t.node in
  m.Metrics.pending_pages <- Parallel_redo.pending_count g

(* Analysis, then the one graph under the configured schedule. The
   bookkeeping later traffic depends on — loser roll-back records,
   in-doubt chains, condensed Paxos acceptor state — happens before the
   node opens either way: it costs log appends and one force, not
   replay I/O. Both close through [finalize], which reclaims the scanned
   prefix so repeated crashes do not re-read ever-growing history: an
   eager restart before the node opens, with the TM's in-doubt set not
   yet re-learned, so it passes its own; an instant one when the
   trickle finishes. *)
let recover t =
  let t0 = Engine.now t.engine in
  t.recovering <- true;
  let a = analyze t in
  let g = Parallel_redo.build a.records ~loser:(fun tid -> not (winner a tid)) in
  let apply = apply_record t a (Hashtbl.create 64) in
  let replay_start = Engine.now t.engine in
  if not t.instant then replay_eagerly t g apply;
  let replay_us = Engine.now t.engine - replay_start in
  let losers, in_doubt, written_objects = resolve_outcome t a in
  let paxos =
    List.map (fun r -> (Log_manager.append t.log r, r)) (condense_paxos a)
  in
  t.paxos_floor <-
    List.fold_left (fun acc (lsn, _) -> min_opt acc (Some lsn)) None paxos;
  Log_manager.force_all t.log;
  if t.instant then park t g apply
  else finalize t ~prepared:(fun () -> in_doubt);
  if Engine.tracing t.engine then
    Engine.emit t.engine
      (Rm_recovered
         {
           node = t.node;
           scanned = Array.length a.records;
           losers = List.length losers;
           in_doubt = List.length in_doubt;
         });
  let outcome =
    {
      losers;
      in_doubt;
      statuses =
        List.sort compare
          (Hashtbl.fold (fun tid s acc -> (tid, s) :: acc) a.statuses []);
      written_objects;
      records_scanned = Array.length a.records;
      replay_us;
      graph = Parallel_redo.stats g;
      paxos;
      open_early = t.instant;
      time_to_open_us = Engine.now t.engine - t0;
    }
  in
  t.recovering <- false;
  ignore (Engine.Waitq.signal_all t.open_q ~engine:t.engine ());
  outcome

(* Park until [recover] returns — the moment the node opens. On an
   instant restart that is right after analysis; on a full restart it is
   after replay, so a request racing recovery waits for a consistent
   store instead of reading pages the redo passes have not reached yet.
   Free when the node is already open: not even a suspension. *)
let await_open t =
  while t.recovering do
    Engine.Waitq.wait t.open_q
  done
