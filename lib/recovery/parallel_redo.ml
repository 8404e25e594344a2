open Tabs_sim
open Tabs_storage
open Tabs_wal

let default = 8

type stats = {
  op_records : int;
  value_records : int;
  chain_edges : int;
  critical_path : int;
  width : int;
}

type phase = Op_redo | Value | Op_undo

(* One phase's scheduling graph. [members] are indices into the analysis
   record array in log order; edges, priorities and the per-page index
   are expressed in member positions. Every edge goes from a lower to a
   higher priority, so the graph is acyclic by construction and a
   priority-ordered ready queue can never deadlock. *)
type dag = {
  members : int array;
  prio : int array;  (* pop order: lower pops first; a permutation *)
  order : int array;  (* positions in priority order: [prio]'s inverse *)
  succs : int list array;
  preds : int list array;
  applied : bool array;
  by_page : (Disk.page_id, int list) Hashtbl.t;
  mutable chain_edges : int;
}

type t = {
  records : (Record.lsn * Record.t) array;
  op : dag;
  value : dag;
  undo : dag;
  redo_done : (Disk.page_id, unit) Hashtbl.t;
      (* pages whose redo closures (op, then value) have been drained *)
  pending : (Disk.page_id, unit) Hashtbl.t;
      (* pages with a member not yet applied in some phase *)
  first : (Disk.page_id, Record.lsn) Hashtbl.t;
      (* oldest record of any phase touching each page *)
}

let dag t = function Op_redo -> t.op | Value -> t.value | Op_undo -> t.undo

let record_pages = function
  | Record.Update_operation u -> u.pages
  | Record.Update_value u -> Object_id.pages u.obj
  | _ -> []

let on_page d pid = Option.value (Hashtbl.find_opt d.by_page pid) ~default:[]

(* [newest_first] phases mirror a backward pass: the newest record pops
   first, and same-page chains run from newer to older. *)
let make_dag members ~newest_first =
  let m = Array.length members in
  let prio = Array.init m (fun pos -> if newest_first then m - 1 - pos else pos) in
  let order = Array.make m 0 in
  Array.iteri (fun pos p -> order.(p) <- pos) prio;
  {
    members;
    prio;
    order;
    succs = Array.make m [];
    preds = Array.make m [];
    applied = Array.make m false;
    by_page = Hashtbl.create 64;
    chain_edges = 0;
  }

let add_edge d a b =
  (* consecutive multi-page records can share several pages; one
     ordering edge between a pair is enough *)
  if a <> b && not (List.mem b d.succs.(a)) then begin
    d.succs.(a) <- b :: d.succs.(a);
    d.preds.(b) <- a :: d.preds.(b);
    true
  end
  else false

(* Per-page chains: each member follows the previous member, in
   priority order, that shares one of its pages. The same walk indexes
   members by page and marks their pages pending. *)
let index t d =
  let last_on_page = Hashtbl.create 64 in
  Array.iter
    (fun pos ->
      let lsn, record = t.records.(d.members.(pos)) in
      List.iter
        (fun pid ->
          (match Hashtbl.find_opt last_on_page pid with
          | Some prev ->
              if add_edge d prev pos then d.chain_edges <- d.chain_edges + 1
          | None -> ());
          Hashtbl.replace last_on_page pid pos;
          Hashtbl.replace d.by_page pid (pos :: on_page d pid);
          (match Hashtbl.find_opt t.first pid with
          | Some f when f <= lsn -> ()
          | Some _ | None -> Hashtbl.replace t.first pid lsn);
          Hashtbl.replace t.pending pid ())
        (record_pages record))
    d.order

let build ~loser records =
  let select keep =
    Array.of_list
      (List.filter
         (fun i -> keep (snd records.(i)))
         (List.init (Array.length records) Fun.id))
  in
  let t =
    {
      records;
      op =
        make_dag ~newest_first:false
          (select (function Record.Update_operation _ -> true | _ -> false));
      (* A value-logged object fits one page, so same-object records
         always share a chain. *)
      value =
        make_dag ~newest_first:true
          (select (function Record.Update_value _ -> true | _ -> false));
      undo =
        make_dag ~newest_first:true
          (select (function
            | Record.Update_operation u -> loser u.tid
            | _ -> false));
      redo_done = Hashtbl.create 64;
      pending = Hashtbl.create 64;
      first = Hashtbl.create 64;
    }
  in
  List.iter (index t) [ t.op; t.value; t.undo ];
  t

(* Longest-path depth and maximum level width of a phase, walking
   members in priority (= topological) order. *)
let measure d =
  let m = Array.length d.members in
  if m = 0 then (0, 0)
  else begin
    let level = Array.make m 1 in
    Array.iter
      (fun pos ->
        List.iter
          (fun s -> if level.(s) < level.(pos) + 1 then level.(s) <- level.(pos) + 1)
          d.succs.(pos))
      d.order;
    let depth = Array.fold_left max 1 level in
    let per_level = Array.make (depth + 1) 0 in
    Array.iter (fun l -> per_level.(l) <- per_level.(l) + 1) level;
    (depth, Array.fold_left max 0 per_level)
  end

(* The redo phases' shape; loser undo always drains at one fiber, so
   its chains bound nothing. *)
let stats t =
  let op_depth, op_width = measure t.op in
  let val_depth, val_width = measure t.value in
  {
    op_records = Array.length t.op.members;
    value_records = Array.length t.value.members;
    chain_edges = t.op.chain_edges + t.value.chain_edges;
    critical_path = op_depth + val_depth;
    width = max op_width val_width;
  }

(* Whole phases ------------------------------------------------------- *)

let apply_once d pos ~apply =
  if d.applied.(pos) then false
  else begin
    d.applied.(pos) <- true;
    apply d.members.(pos);
    true
  end

let drain t phase ~apply =
  let d = dag t phase in
  Array.iter (fun pos -> ignore (apply_once d pos ~apply)) d.order

(* The heap and in-degree updates happen between fiber suspension
   points, so no further synchronization is needed: the simulator's
   fibers are cooperative. All edges point from lower to higher
   priority, so the lowest-priority unapplied record always has
   in-degree zero — the heap can only be empty mid-phase while some
   worker is still applying, and that worker's completion signals the
   idle queue. One fiber drains inline: the priority order is the
   serial pass, so a worker would only add a spawn and a wake-up. *)
let drain_over t phase engine ~node ~fibers ~apply =
  let d = dag t phase in
  let m = Array.length d.members in
  if fibers <= 1 then drain t phase ~apply
  else if m > 0 then begin
    let indeg = Array.map List.length d.preds in
    let heap = Heap.create () in
    let push pos = ignore (Heap.push heap ~key:d.prio.(pos) pos) in
    Array.iteri (fun pos n -> if n = 0 then push pos) indeg;
    let remaining = ref m in
    let idle : unit Engine.Waitq.t = Engine.Waitq.create () in
    let finished : unit Engine.Waitq.t = Engine.Waitq.create () in
    let live = ref fibers in
    let rec worker () =
      if !remaining > 0 then
        if Heap.is_empty heap then begin
          Engine.Waitq.wait idle;
          worker ()
        end
        else begin
          let pos = Heap.pop heap in
          ignore (apply_once d pos ~apply);
          decr remaining;
          List.iter
            (fun s ->
              indeg.(s) <- indeg.(s) - 1;
              if indeg.(s) = 0 then begin
                push s;
                ignore (Engine.Waitq.signal idle ~engine ())
              end)
            d.succs.(pos);
          if !remaining = 0 then
            ignore (Engine.Waitq.signal_all idle ~engine ());
          worker ()
        end
    in
    for _ = 1 to fibers do
      ignore
        (Engine.spawn engine ~node (fun () ->
             worker ();
             decr live;
             if !live = 0 then
               ignore (Engine.Waitq.signal finished ~engine ())))
    done;
    Engine.Waitq.wait finished
  end

(* One page ---------------------------------------------------------- *)

(* Predecessor closure of the members touching [pid], in ascending
   position order. Applying a closure in priority order respects every
   edge. *)
let closure d pid =
  let seen = Hashtbl.create 32 in
  let rec visit pos =
    if not (Hashtbl.mem seen pos) then begin
      Hashtbl.add seen pos ();
      List.iter visit d.preds.(pos)
    end
  in
  List.iter visit (on_page d pid);
  List.sort compare (Hashtbl.fold (fun pos () acc -> pos :: acc) seen [])

(* Redo the page's operation closure forward, then its value closure
   newest-first; then repeat history on every page a needed loser undo
   touches (undo assumes the loser effect is present) and apply the
   undo closure newest-first. Cross-page predecessors are applied too
   and never re-applied later: the applied flags, not the sector-seqno
   gates, are what makes a serving window safe — a page already
   recovered and re-written by new transactions carries a high seqno,
   which must not resurrect a shared multi-page record. *)
let drain_page t pid ~apply =
  let applied = ref 0 in
  let run phase positions =
    let d = dag t phase in
    List.iter
      (fun pos -> if apply_once d pos ~apply:(apply phase) then incr applied)
      (List.sort (fun a b -> compare d.prio.(a) d.prio.(b)) positions)
  in
  let redo q =
    if not (Hashtbl.mem t.redo_done q) then begin
      run Op_redo (closure t.op q);
      run Value (closure t.value q);
      Hashtbl.replace t.redo_done q ()
    end
  in
  redo pid;
  let needed = closure t.undo pid in
  List.iter
    (fun pos -> List.iter redo (record_pages (snd t.records.(t.undo.members.(pos)))))
    needed;
  run Op_undo needed;
  !applied

(* Pending pages whose every member, in all three phases, has been
   applied — possibly by a neighbouring page's closure — leave the
   pending set; returns how many did. *)
let settle t =
  let complete pid =
    List.for_all
      (fun d -> List.for_all (fun pos -> d.applied.(pos)) (on_page d pid))
      [ t.op; t.value; t.undo ]
  in
  let done_ =
    Hashtbl.fold
      (fun pid () acc -> if complete pid then pid :: acc else acc)
      t.pending []
  in
  List.iter (Hashtbl.remove t.pending) done_;
  List.length done_

let pending_count t = Hashtbl.length t.pending

let is_pending t pid = Hashtbl.mem t.pending pid

let pending t =
  Hashtbl.fold (fun pid () acc -> (Hashtbl.find t.first pid, pid) :: acc) t.pending []
