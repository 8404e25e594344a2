open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_lock
open Tabs_core

let areas = 8

let state_slots_per_area = 64

let content_pages_per_area = 2

let content_bytes = content_pages_per_area * Page.size

type area = int

type style = In_progress | Committed | Aborted

(* Segment layout:
   page 0:            area table, 32 bytes per area:
                      in_use(8) write_off(8) n_lines(8) next_slot(8)
   pages 1..8:        one state-slot page per area (64 x 8-byte slots)
   pages 9..:         2 content pages per area, line records appended:
                      [slot:1][kind:1][len:1][text] *)

type t = {
  server : Server_lib.t;
  engine : Engine.t;
  owners : (Tid.t * area, int) Hashtbl.t; (* volatile: client txn -> slot *)
  input : (area, string Queue.t) Hashtbl.t; (* volatile keyboard buffers *)
  input_waiters : (area, string Engine.Waitq.t) Hashtbl.t;
  partial : (area, (int * Buffer.t)) Hashtbl.t;
      (* volatile: unterminated output line per area (slot, text) *)
}

let area_check a = if a < 0 || a >= areas then raise (Errors.Server_error "BadArea")

let table_obj t a field =
  Server_lib.create_object_id t.server ~offset:((a * 32) + (field * 8)) ~length:8

let slot_obj t a slot =
  Server_lib.create_object_id t.server
    ~offset:(((1 + a) * Page.size) + (slot * 8))
    ~length:8

let content_page a = 9 + (content_pages_per_area * a)

let content_obj t a ~off ~len =
  Server_lib.create_object_id t.server
    ~offset:((content_page a * Page.size) + off)
    ~length:len

let read_int t obj = Codec.(decode slot) (Server_lib.read_object t.server obj)

(* value-logged single-int write under a given transaction *)
let put_int t tid obj v =
  Server_lib.lock_object t.server tid obj Mode.Write;
  Server_lib.pin_and_buffer t.server tid obj;
  Server_lib.write_object t.server obj (Codec.(encode slot) v);
  Server_lib.log_and_unpin t.server tid obj

let state_aborted = 0

let state_committed = 1

(* Area lifecycle -------------------------------------------------------- *)

let obtain_io_area t =
  Server_lib.execute_transaction t.server (fun tid ->
      (* take the lock before reading the in_use flag: two concurrent
         obtains must not both see the same area as free *)
      let rec find a =
        if a >= areas then raise (Errors.Server_error "NoFreeArea")
        else begin
          Server_lib.lock_object t.server tid (table_obj t a 0) Mode.Write;
          if read_int t (table_obj t a 0) = 0 then a else find (a + 1)
        end
      in
      let a = find 0 in
      put_int t tid (table_obj t a 0) 1;
      put_int t tid (table_obj t a 1) 0;
      put_int t tid (table_obj t a 2) 0;
      put_int t tid (table_obj t a 3) 0;
      a)

let destroy_io_area t a =
  area_check a;
  Server_lib.execute_transaction t.server (fun tid ->
      put_int t tid (table_obj t a 0) 0;
      put_int t tid (table_obj t a 1) 0;
      put_int t tid (table_obj t a 2) 0)

(* The state-object trick ------------------------------------------------- *)

(* First touch of [a] by client [tid]: allocate a state slot, write
   "aborted" into it under a server-owned transaction, then have the
   client transaction lock it and set "committed" — putting the
   aborted/committed old/new pair on the log under the client's
   identity. *)
let owner_slot t tid a =
  let top = Tid.top_level tid in
  match Hashtbl.find_opt t.owners (top, a) with
  | Some slot -> slot
  | None ->
      let slot =
        Server_lib.execute_transaction t.server (fun server_tid ->
            let counter = table_obj t a 3 in
            let slot = read_int t counter in
            if slot >= state_slots_per_area then
              raise (Errors.Server_error "AreaStateExhausted");
            put_int t server_tid counter (slot + 1);
            put_int t server_tid (slot_obj t a slot) state_aborted;
            slot)
      in
      put_int t tid (slot_obj t a slot) state_committed;
      Hashtbl.add t.owners (top, a) slot;
      slot

(* Append one line record under a server-owned transaction so the text
   is permanent whatever the client transaction's fate. *)
let append_line t a ~slot ~kind text =
  let text =
    if String.length text > 120 then String.sub text 0 120 else text
  in
  Server_lib.execute_transaction t.server (fun server_tid ->
      let off_obj = table_obj t a 1 in
      let lines_obj = table_obj t a 2 in
      let off = read_int t off_obj in
      let record_len = 3 + String.length text in
      if off + record_len > content_bytes then
        raise (Errors.Server_error "AreaFull");
      let record = Bytes.create record_len in
      Bytes.set record 0 (Char.chr slot);
      Bytes.set record 1 (Char.chr kind);
      Bytes.set record 2 (Char.chr (String.length text));
      Bytes.blit_string text 0 record 3 (String.length text);
      (* the record may straddle the two content pages; write it in
         page-sized object chunks so value logging stays one page *)
      let rec write_chunks pos remaining =
        if remaining > 0 then begin
          let page_room = Page.size - ((off + pos) mod Page.size) in
          let len = min remaining page_room in
          let obj = content_obj t a ~off:(off + pos) ~len in
          Server_lib.lock_object t.server server_tid obj Mode.Write;
          Server_lib.pin_and_buffer t.server server_tid obj;
          Server_lib.write_object t.server obj
            (Bytes.sub_string record pos len);
          Server_lib.log_and_unpin t.server server_tid obj;
          write_chunks (pos + len) (remaining - len)
        end
      in
      write_chunks 0 record_len;
      put_int t server_tid off_obj (off + record_len);
      put_int t server_tid lines_obj (read_int t lines_obj + 1))

let flush_partial t a =
  match Hashtbl.find_opt t.partial a with
  | None -> None
  | Some (slot, buffer) ->
      Hashtbl.remove t.partial a;
      Some (slot, Buffer.contents buffer)

let writeln_to_area t tid a text =
  Server_lib.enter_operation t.server tid;
  area_check a;
  let slot = owner_slot t tid a in
  let text =
    match flush_partial t a with
    | Some (_, prefix) -> prefix ^ text
    | None -> text
  in
  append_line t a ~slot ~kind:0 text

(* Unterminated output accumulates in a volatile buffer until a writeln
   or an input echo completes the line. (The paper's WriteToArea; like
   a real typescript, a partial line is lost in a crash.) *)
let write_to_area t tid a text =
  Server_lib.enter_operation t.server tid;
  area_check a;
  let slot = owner_slot t tid a in
  match Hashtbl.find_opt t.partial a with
  | Some (_, buffer) -> Buffer.add_string buffer text
  | None ->
      let buffer = Buffer.create 32 in
      Buffer.add_string buffer text;
      Hashtbl.add t.partial a (slot, buffer)

(* Input ------------------------------------------------------------------- *)

let input_queue t a =
  match Hashtbl.find_opt t.input a with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add t.input a q;
      q

let input_waitq t a =
  match Hashtbl.find_opt t.input_waiters a with
  | Some w -> w
  | None ->
      let w = Engine.Waitq.create () in
      Hashtbl.add t.input_waiters a w;
      w

let provide_input t a text =
  area_check a;
  let w = input_waitq t a in
  if not (Engine.Waitq.signal w ~engine:t.engine text) then
    Queue.add text (input_queue t a)

let read_line_from_area t tid a =
  Server_lib.enter_operation t.server tid;
  area_check a;
  let slot = owner_slot t tid a in
  let q = input_queue t a in
  let line =
    if Queue.is_empty q then Engine.Waitq.wait (input_waitq t a)
    else Queue.take q
  in
  (* a pending partial output line is completed first *)
  (match flush_partial t a with
  | Some (pslot, text) -> append_line t a ~slot:pslot ~kind:0 text
  | None -> ());
  (* echo, bracketed, under the client's state slot *)
  append_line t a ~slot ~kind:1 line;
  line

let read_char_from_area t tid a =
  Server_lib.enter_operation t.server tid;
  area_check a;
  let slot = owner_slot t tid a in
  let q = input_queue t a in
  let chunk =
    if Queue.is_empty q then Engine.Waitq.wait (input_waitq t a)
    else Queue.take q
  in
  if String.length chunk = 0 then raise (Errors.Server_error "EmptyInput");
  let c = chunk.[0] in
  let rest = String.sub chunk 1 (String.length chunk - 1) in
  (* push back what the application did not consume *)
  if String.length rest > 0 then begin
    let keep = Queue.copy q in
    Queue.clear q;
    Queue.add rest q;
    Queue.transfer keep q
  end;
  (match flush_partial t a with
  | Some (pslot, text) -> append_line t a ~slot:pslot ~kind:0 text
  | None -> ());
  append_line t a ~slot ~kind:1 (String.make 1 c);
  c

(* Rendering ----------------------------------------------------------------- *)

let classify t a slot =
  let obj = slot_obj t a slot in
  if Server_lib.is_object_locked t.server obj then In_progress
  else if read_int t obj = state_committed then Committed
  else Aborted

let area_lines t a =
  let off_limit = read_int t (table_obj t a 1) in
  let content =
    Server_lib.read_object t.server
      (content_obj t a ~off:0 ~len:content_bytes)
  in
  let rec walk off acc =
    if off + 3 > off_limit then List.rev acc
    else begin
      let slot = Char.code content.[off] in
      let kind = Char.code content.[off + 1] in
      let len = Char.code content.[off + 2] in
      let text = String.sub content (off + 3) len in
      let style = classify t a slot in
      let text = if kind = 1 then "[" ^ text ^ "]" else text in
      walk (off + 3 + len) ((style, text) :: acc)
    end
  in
  walk 0 []

let render t =
  List.filter_map
    (fun a ->
      if read_int t (table_obj t a 0) = 0 then None
      else Some (a, area_lines t a))
    (List.init areas Fun.id)

let render_text t =
  let buffer = Buffer.create 256 in
  List.iter
    (fun (a, lines) ->
      Buffer.add_string buffer (Printf.sprintf "+--- area %d %s\n" a (String.make 48 '-'));
      List.iter
        (fun (style, text) ->
          let decorated =
            match style with
            | In_progress -> "~" ^ text ^ "~"
            | Committed -> text
            | Aborted -> "-" ^ text ^ "-"
          in
          Buffer.add_string buffer ("| " ^ decorated ^ "\n"))
        lines)
    (render t);
  Buffer.add_string buffer ("+" ^ String.make 60 '-');
  Buffer.contents buffer

(* RPC plumbing ------------------------------------------------------------ *)

let writeln_op = Rpc.op "writeln" Codec.(pair int string) Codec.unit

let write_op = Rpc.op "write" Codec.(pair int string) Codec.unit

let read_line_op = Rpc.op "read_line" Codec.int Codec.string

let read_char_op = Rpc.op "read_char" Codec.int Codec.string

let create env ~name ~segment () =
  let pages = 9 + (content_pages_per_area * areas) in
  let server = Server_lib.create env ~name ~segment ~pages () in
  let t =
    {
      server;
      engine = env.Server_lib.engine;
      owners = Hashtbl.create 16;
      input = Hashtbl.create 8;
      input_waiters = Hashtbl.create 8;
      partial = Hashtbl.create 8;
    }
  in
  Server_lib.accept_requests server
    (Rpc.serve
       [
         Rpc.handle writeln_op (fun tid (a, text) -> writeln_to_area t tid a text);
         Rpc.handle write_op (fun tid (a, text) -> write_to_area t tid a text);
         Rpc.handle read_line_op (fun tid a -> read_line_from_area t tid a);
         Rpc.handle read_char_op (fun tid a ->
             String.make 1 (read_char_from_area t tid a));
       ]);
  Server_lib.register_name server ~name ~object_id:"display";
  t
