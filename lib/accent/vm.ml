open Tabs_sim
open Tabs_storage
open Tabs_wal

type Trace.event +=
  | Page_out of {
      segment : int;
      page : int;
      seqno : int;
      elapsed : int; (* virtual time for the whole 3-message WAL round *)
    }

type wal_hooks = {
  on_first_dirty : Disk.page_id -> unit;
  before_page_out : seqno:int -> unit;
}

(* Resident frames form a circular doubly linked LRU list through a
   sentinel: [sentinel.newer] is the least recently used frame. A frame
   out of the list links to itself. A [shared] frame's [data] may be an
   image the disk holds too, so [write] copies it first. *)
type frame = {
  pid : Disk.page_id;
  mutable data : bytes;
  mutable shared : bool;
  mutable dirty : bool;
  mutable pins : int;
  mutable rec_lsn : int option;
  mutable last_lsn : int;
  mutable older : frame;
  mutable newer : frame;
}

module Pid_map = Map.Make (struct type t = Disk.page_id let compare = compare end)

type t = {
  engine : Engine.t;
  disk : Disk.t;
  frames : int;
  profile : Profile.t;
  table : (Disk.page_id, frame) Hashtbl.t;
  sentinel : frame; (* of the LRU list *)
  mutable dirty_set : frame Pid_map.t;
  mutable hooks : wal_hooks option;
  mutable on_fault : (Disk.page_id -> unit) option;
  mutable fault_count : int;
}

let unlinked pid data ~last_lsn =
  let rec f =
    { pid; data = Bytes.unsafe_of_string data; shared = true; dirty = false;
      pins = 0; rec_lsn = None; last_lsn; older = f; newer = f }
  in
  f

let attach engine disk ~frames ?(profile = Profile.Classic) () =
  if frames < 1 then invalid_arg "Vm.attach: frames < 1";
  {
    engine;
    disk;
    frames;
    profile;
    table = Hashtbl.create (2 * frames);
    sentinel = unlinked { Disk.segment = -1; page = -1 } "" ~last_lsn:0;
    dirty_set = Pid_map.empty;
    hooks = None;
    on_fault = None;
    fault_count = 0;
  }

let set_wal_hooks t hooks = t.hooks <- Some hooks

let set_on_fault t f = t.on_fault <- f

let disk t = t.disk

(* One leg of the kernel <-> Recovery Manager paging protocol. On a
   Classic node it is an Accent small message and delays the caller; on
   an Integrated node the Recovery Manager lives in the kernel's address
   space, so the hop is a procedure call and only the elision is
   counted. *)
let protocol_msg t =
  match t.profile with
  | Profile.Classic -> Engine.charge t.engine Cost_model.Small_contiguous_message
  | Profile.Integrated -> Engine.elide t.engine Cost_model.Small_contiguous_message

(* The first-modification notice is asynchronous even on Classic nodes:
   the writing coroutine must not lose the processor between reading an
   object and updating it, or commuting operations under type-specific
   locks could interleave mid-update. Its cost is recorded without
   delaying. *)
let protocol_notice t =
  match t.profile with
  | Profile.Classic -> Engine.record_only t.engine Cost_model.Small_contiguous_message
  | Profile.Integrated -> Engine.elide t.engine Cost_model.Small_contiguous_message

let unlink frame =
  frame.older.newer <- frame.newer;
  frame.newer.older <- frame.older;
  frame.older <- frame;
  frame.newer <- frame

(* Move [frame] to the most recently used end. *)
let touch t frame =
  unlink frame;
  frame.older <- t.sentinel.older;
  frame.newer <- t.sentinel;
  t.sentinel.older.newer <- frame;
  t.sentinel.older <- frame

(* Section 3.2.1's write-ahead protocol around every page-out of a
   recoverable-segment page: the kernel announces the intended write
   with the sector sequence number it will stamp (the frame's last
   noted LSN), the Recovery Manager forces the log through that record
   (the [before_page_out] hook) and answers, and the kernel reports
   completion. *)
let page_out t frame =
  let started = Engine.now t.engine in
  (* The disk must receive exactly the state the Recovery Manager's
     go-ahead covers. The protocol legs, the log force, and the disk
     write all suspend this fiber, and a writing coroutine may pin and
     update the frame meanwhile, noting its record only later; such an
     update must wait for a later page-out rather than ride along under
     the old sequence number: sharing makes it write a copy. So the
     snapshot is taken before the announcement, while the victim is
     unpinned, and taken again after the first leg only if the frame is
     unpinned then too: every writer notes its record before it
     unpins. *)
  let snapshot () =
    frame.shared <- true;
    (frame.last_lsn, Bytes.unsafe_to_string frame.data)
  in
  let announced = snapshot () in
  protocol_msg t;
  let seqno, image = if frame.pins = 0 then snapshot () else announced in
  (match t.hooks with
  | Some h -> h.before_page_out ~seqno
  | None -> ());
  (* the Recovery Manager's go-ahead, carrying the sector sequence
     number for the kernel to write atomically *)
  protocol_msg t;
  Disk.write t.disk frame.pid image ~seqno;
  (* updates that arrived during the transfer keep the frame dirty *)
  let data = Bytes.unsafe_to_string frame.data in
  if frame.last_lsn = seqno && Page.equal data image then begin
    if frame.dirty then t.dirty_set <- Pid_map.remove frame.pid t.dirty_set;
    frame.dirty <- false;
    frame.rec_lsn <- None
  end;
  protocol_msg t;
  if Engine.tracing t.engine then
    Engine.emit t.engine
      (Page_out
         {
           segment = frame.pid.segment;
           page = frame.pid.page;
           seqno;
           elapsed = Engine.now t.engine - started;
         })

(* The victim is the least recently used unpinned frame. *)
let rec evict_victim t =
  let rec oldest_unpinned frame =
    if frame == t.sentinel then failwith "Vm: all frames pinned, cannot evict"
    else if frame.pins = 0 then frame
    else oldest_unpinned frame.newer
  in
  let frame = oldest_unpinned t.sentinel.newer in
  if frame.dirty then page_out t frame;
  (* the page-out suspends: a coroutine may have pinned or re-dirtied
     the frame meanwhile, making it ineligible after all, or evicted it
     already, in which case it has left the list and the table *)
  if frame.pins > 0 || frame.dirty then evict_victim t
  else if frame.newer != frame then begin
    unlink frame;
    Hashtbl.remove t.table frame.pid
  end

let fault t pid ~access =
  (* Instant restart's redo-on-first-touch gate: the Recovery Manager
     replays the page's parked log chain before the access proceeds.
     Consulted on hits too — residency does not imply the chain was
     replayed (analysis does not fault pages in). *)
  (match t.on_fault with None -> () | Some f -> f pid);
  match Hashtbl.find_opt t.table pid with
  | Some frame ->
      touch t frame;
      frame
  | None -> (
      if Hashtbl.length t.table >= t.frames then evict_victim t;
      t.fault_count <- t.fault_count + 1;
      let data, last_lsn = Disk.read t.disk pid ~access in
      (* the disk read suspends this fiber: another coroutine may have
         faulted the same page meanwhile — never table it twice *)
      match Hashtbl.find_opt t.table pid with
      | Some frame ->
          touch t frame;
          frame
      | None ->
          let frame = unlinked pid data ~last_lsn in
          touch t frame;
          Hashtbl.add t.table pid frame;
          frame)

let object_pages obj = Object_id.pages obj

let read t obj ~access =
  let buffer = Buffer.create obj.Object_id.length in
  List.iter
    (fun (pid : Disk.page_id) ->
      let frame = fault t pid ~access in
      let page_base = pid.page * Page.size in
      let first = max obj.offset page_base in
      let last = min (obj.offset + obj.length) (page_base + Page.size) in
      Buffer.add_subbytes buffer frame.data (first - page_base) (last - first))
    (object_pages obj);
  Buffer.contents buffer

let mark_dirty t frame =
  if not frame.dirty then begin
    frame.dirty <- true;
    t.dirty_set <- Pid_map.add frame.pid frame t.dirty_set;
    protocol_notice t;
    match t.hooks with
    | Some h -> h.on_first_dirty frame.pid
    | None -> ()
  end

let write t obj value =
  if String.length value <> obj.Object_id.length then
    invalid_arg "Vm.write: value length differs from object length";
  List.iter
    (fun (pid : Disk.page_id) ->
      let frame =
        match Hashtbl.find_opt t.table pid with
        | Some f when f.pins > 0 -> f
        | Some _ -> invalid_arg "Vm.write: page not pinned"
        | None -> invalid_arg "Vm.write: page not resident"
      in
      let page_base = pid.page * Page.size in
      let first = max obj.offset page_base in
      let last = min (obj.offset + obj.length) (page_base + Page.size) in
      mark_dirty t frame;
      touch t frame;
      if frame.shared then begin
        frame.data <- Bytes.copy frame.data;
        frame.shared <- false
      end;
      Page.blit_string
        (String.sub value (first - obj.offset) (last - first))
        frame.data ~off:(first - page_base))
    (object_pages obj)

let pin t obj ~access =
  List.iter
    (fun pid ->
      let frame = fault t pid ~access in
      frame.pins <- frame.pins + 1)
    (object_pages obj)

let unpin t obj =
  List.iter
    (fun pid ->
      match Hashtbl.find_opt t.table pid with
      | Some frame when frame.pins > 0 -> frame.pins <- frame.pins - 1
      | Some _ | None -> invalid_arg "Vm.unpin: page not pinned")
    (object_pages obj)

let unpin_all t = Hashtbl.iter (fun _ frame -> frame.pins <- 0) t.table

(* The recovery LSN keeps the *minimum* of everything noted while the
   frame is dirty. The minimum matters because abort processing undoes
   in place without logging compensation records: the undo of record
   [lsn] re-notes [lsn] itself, and if the page leaked to disk mid-way
   a checkpoint-anchored recovery must scan from the original record,
   not from where the log happened to be at undo time. *)
let lower_rec_lsn frame lsn =
  frame.rec_lsn <-
    Some (match frame.rec_lsn with None -> lsn | Some r -> min r lsn)

let note_update t obj ~lsn =
  List.iter
    (fun pid ->
      match Hashtbl.find_opt t.table pid with
      | None -> invalid_arg "Vm.note_update: page not resident"
      | Some frame ->
          lower_rec_lsn frame lsn;
          frame.last_lsn <- max frame.last_lsn lsn)
    (object_pages obj)

let note_pages t pages ~lsn =
  List.iter
    (fun pid ->
      match Hashtbl.find_opt t.table pid with
      | None -> ()
      | Some frame ->
          lower_rec_lsn frame lsn;
          frame.last_lsn <- max frame.last_lsn lsn)
    pages

let note_rec_lsn t pid ~lsn =
  match Hashtbl.find_opt t.table pid with
  | None -> ()
  | Some frame -> lower_rec_lsn frame lsn

let dirty_pages t =
  List.map
    (fun (pid, f) -> (pid, Option.value f.rec_lsn ~default:f.last_lsn))
    (Pid_map.bindings t.dirty_set)

let flush_page t pid =
  match Hashtbl.find_opt t.table pid with
  | Some frame when frame.dirty && frame.pins = 0 -> page_out t frame
  | Some _ | None -> ()

let flush_all t =
  let dirty = List.map fst (dirty_pages t) in
  List.iter (flush_page t) dirty

let resident t = Hashtbl.length t.table

let lru t =
  let rec go f acc = if f == t.sentinel then acc else go f.older (f.pid :: acc) in
  go t.sentinel.older []

let pinned t =
  Hashtbl.fold (fun _ f acc -> if f.pins > 0 then acc + 1 else acc) t.table 0

let faults t = t.fault_count
