open Tabs_sim

type segment_id = int

type page_id = { segment : segment_id; page : int }

(* [data.(i)] and [seqnos.(i)] are sector [i]'s image and header. A
   never-written sector holds the shared zero image and reports sequence
   number -1: the first log record is LSN 0, so 0 would be
   indistinguishable from "written covering LSN 0" to the recovery
   gates. *)
type segment = { mutable data : Page.t array; mutable seqnos : int array }

type t = {
  engine : Engine.t;
  segments : (segment_id, segment) Hashtbl.t;
  mutable writes : int;
}

let create engine = { engine; segments = Hashtbl.create 16; writes = 0 }

let ensure_segment t seg ~pages =
  match Hashtbl.find_opt t.segments seg with
  | None ->
      Hashtbl.add t.segments seg
        { data = Array.make pages Page.zero; seqnos = Array.make pages (-1) }
  | Some s ->
      let more = pages - Array.length s.data in
      if more > 0 then begin
        s.data <- Array.append s.data (Array.make more Page.zero);
        s.seqnos <- Array.append s.seqnos (Array.make more (-1))
      end

let segment_pages t seg =
  match Hashtbl.find_opt t.segments seg with
  | None -> 0
  | Some s -> Array.length s.data

let segment t pid =
  match Hashtbl.find t.segments pid.segment with
  | exception Not_found -> invalid_arg "Disk: unknown segment"
  | s ->
      if pid.page < 0 || pid.page >= Array.length s.data then
        invalid_arg "Disk: page out of segment bounds";
      s

let read_nocharge t pid = (segment t pid).data.(pid.page)

(* One segment lookup for both halves of the sector. *)
let read t pid ~access =
  Engine.charge t.engine
    (match access with
    | `Random -> Cost_model.Random_paged_io
    | `Sequential -> Cost_model.Sequential_read);
  let s = segment t pid in
  (s.data.(pid.page), s.seqnos.(pid.page))

let write_nocharge t pid page ~seqno =
  let s = segment t pid in
  s.data.(pid.page) <- page;
  s.seqnos.(pid.page) <- seqno;
  t.writes <- t.writes + 1

let write t pid page ~seqno =
  Engine.charge t.engine Cost_model.Random_paged_io;
  write_nocharge t pid page ~seqno

let seqno t pid = (segment t pid).seqnos.(pid.page)

(* Images are immutable, so a copy shares them. *)
let copy t ~engine =
  let segments = Hashtbl.copy t.segments in
  Hashtbl.filter_map_inplace
    (fun _ s -> Some { data = Array.copy s.data; seqnos = Array.copy s.seqnos })
    segments;
  { t with engine; segments }

let pages_written t = t.writes
