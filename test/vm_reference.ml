(* Reference model of Tabs_accent.Vm's buffer pool: every frame carries
   a use stamp, the victim is the unpinned frame with the smallest stamp
   (a fold over the whole table) and the dirty list is a fold over the
   whole table, sorted. It is the specification the LRU list and dirty
   set are checked against in test_accent.ml. Costs are charged exactly
   as in Vm on a Classic node, with [before_page_out] standing for the
   WAL hook of the same name, so both run to the same virtual schedule.
   Frames hold private copies: a fault copies the disk's image and a
   page-out copies the frame, the specification Vm's shared images are
   checked against. *)

open Tabs_sim
open Tabs_storage
open Tabs_wal

type frame = {
  pid : Disk.page_id;
  mutable data : bytes;
  mutable dirty : bool;
  mutable pins : int;
  mutable rec_lsn : int option;
  mutable last_lsn : int;
  mutable touched : int;
}

type t = {
  engine : Engine.t;
  disk : Disk.t;
  frames : int;
  table : (Disk.page_id, frame) Hashtbl.t;
  before_page_out : seqno:int -> unit;
  mutable tick : int;
  mutable fault_count : int;
}

let attach engine disk ~frames ~before_page_out =
  {
    engine;
    disk;
    frames;
    table = Hashtbl.create 16;
    before_page_out;
    tick = 0;
    fault_count = 0;
  }

let touch t frame =
  t.tick <- t.tick + 1;
  frame.touched <- t.tick

let msg t = Engine.charge t.engine Cost_model.Small_contiguous_message

let page_out t frame =
  let snapshot () = (frame.last_lsn, Bytes.to_string frame.data) in
  let announced = snapshot () in
  msg t;
  let seqno, image = if frame.pins = 0 then snapshot () else announced in
  t.before_page_out ~seqno;
  msg t;
  Disk.write t.disk frame.pid image ~seqno;
  if frame.last_lsn = seqno && Page.equal (Bytes.to_string frame.data) image then begin
    frame.dirty <- false;
    frame.rec_lsn <- None
  end;
  msg t

let rec evict_victim t =
  let victim =
    Hashtbl.fold
      (fun _ frame best ->
        if frame.pins > 0 then best
        else
          match best with
          | None -> Some frame
          | Some b -> if frame.touched < b.touched then Some frame else best)
      t.table None
  in
  match victim with
  | None -> failwith "Vm: all frames pinned, cannot evict"
  | Some frame ->
      if frame.dirty then page_out t frame;
      if frame.pins = 0 && not frame.dirty then begin
        (* a concurrent eviction may have taken the frame already and
           the page been faulted back in as a new frame: only this
           frame leaves *)
        match Hashtbl.find_opt t.table frame.pid with
        | Some f when f == frame -> Hashtbl.remove t.table frame.pid
        | Some _ | None -> ()
      end
      else evict_victim t

let fault t pid =
  match Hashtbl.find_opt t.table pid with
  | Some frame ->
      touch t frame;
      frame
  | None -> (
      if Hashtbl.length t.table >= t.frames then evict_victim t;
      t.fault_count <- t.fault_count + 1;
      let image, seqno = Disk.read t.disk pid ~access:`Random in
      let data = Bytes.of_string image in
      match Hashtbl.find_opt t.table pid with
      | Some frame ->
          touch t frame;
          frame
      | None ->
          let frame =
            {
              pid;
              data;
              dirty = false;
              pins = 0;
              rec_lsn = None;
              last_lsn = seqno;
              touched = 0;
            }
          in
          touch t frame;
          Hashtbl.add t.table pid frame;
          frame)

let read t (obj : Object_id.t) =
  match Object_id.pages obj with
  | [ pid ] ->
      let frame = fault t pid in
      Bytes.sub_string frame.data (obj.offset - (pid.page * Page.size))
        obj.length
  | _ -> invalid_arg "Vm_reference.read: one-page objects only"

let pin t obj =
  List.iter
    (fun pid ->
      let frame = fault t pid in
      frame.pins <- frame.pins + 1)
    (Object_id.pages obj)

let unpin t obj =
  List.iter
    (fun pid ->
      let frame = Hashtbl.find t.table pid in
      frame.pins <- frame.pins - 1)
    (Object_id.pages obj)

let write t (obj : Object_id.t) value =
  List.iter
    (fun (pid : Disk.page_id) ->
      let frame = Hashtbl.find t.table pid in
      frame.dirty <- true;
      touch t frame;
      Page.blit_string value frame.data
        ~off:(obj.offset - (pid.page * Page.size)))
    (Object_id.pages obj)

let note_update t obj ~lsn =
  List.iter
    (fun pid ->
      let f = Hashtbl.find t.table pid in
      f.rec_lsn <- Some (match f.rec_lsn with None -> lsn | Some r -> min r lsn);
      f.last_lsn <- max f.last_lsn lsn)
    (Object_id.pages obj)

let dirty_pages t =
  Hashtbl.fold
    (fun pid f acc ->
      if f.dirty then (pid, Option.value f.rec_lsn ~default:f.last_lsn) :: acc
      else acc)
    t.table []
  |> List.sort compare

let flush_page t pid =
  match Hashtbl.find_opt t.table pid with
  | Some frame when frame.dirty && frame.pins = 0 -> page_out t frame
  | Some _ | None -> ()

(* Resident pages, least recently used first. *)
let lru t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.table []
  |> List.sort (fun a b -> compare a.touched b.touched)
  |> List.map (fun f -> f.pid)

let resident t = Hashtbl.length t.table

let faults t = t.fault_count
