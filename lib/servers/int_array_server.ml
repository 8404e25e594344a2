open Tabs_storage
open Tabs_wal
open Tabs_lock
open Tabs_core

let cell_size = 8

let cells_per_page = Page.size / cell_size

type t = { server : Server_lib.t; n_cells : int }

let server t = t.server

let cell_obj t i =
  (* one cells_per_page run per page: cell i lives on page
     i / cells_per_page at slot i mod cells_per_page *)
  let page = i / cells_per_page and slot = i mod cells_per_page in
  Server_lib.create_object_id t.server
    ~offset:((page * Page.size) + (slot * cell_size))
    ~length:cell_size

let check_range t i =
  if i < 0 || i >= t.n_cells then
    raise (Errors.Server_error "IndexOutOfRange")

let decode_cell s = Int64.to_int (String.get_int64_le s 0)

let encode_cell v =
  let b = Bytes.create cell_size in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.to_string b

let get t tid ?(access = `Random) i =
  Server_lib.enter_operation t.server tid;
  check_range t i;
  let obj = cell_obj t i in
  Server_lib.lock_object t.server tid obj Mode.Read;
  decode_cell (Server_lib.read_object t.server ~access obj)

let set t tid ?(access = `Random) i value =
  Server_lib.enter_operation t.server tid;
  check_range t i;
  let obj = cell_obj t i in
  Server_lib.lock_object t.server tid obj Mode.Write;
  Server_lib.pin_and_buffer t.server tid ~access obj;
  Server_lib.write_object t.server obj (encode_cell value);
  Server_lib.log_and_unpin t.server tid obj

(* Matchmaker-style stubs ------------------------------------------------ *)

let encode_access w access =
  Codec.Writer.bool w (match access with `Sequential -> true | `Random -> false)

let decode_access r = if Codec.Reader.bool r then `Sequential else `Random

let encode_get ?(access = `Random) i =
  let w = Codec.Writer.create () in
  encode_access w access;
  Codec.Writer.int w i;
  Codec.Writer.contents w

let encode_set ?(access = `Random) i v =
  let w = Codec.Writer.create () in
  encode_access w access;
  Codec.Writer.int w i;
  Codec.Writer.int w v;
  Codec.Writer.contents w

let decode_int_reply s =
  let r = Codec.Reader.of_string s in
  Codec.Reader.int r

let encode_int_reply v =
  let w = Codec.Writer.create () in
  Codec.Writer.int w v;
  Codec.Writer.contents w

let dispatch t ~tid ~op ~arg =
  let r = Codec.Reader.of_string arg in
  match op with
  | "get" ->
      let access = decode_access r in
      let i = Codec.Reader.int r in
      encode_int_reply (get t tid ~access i)
  | "set" ->
      let access = decode_access r in
      let i = Codec.Reader.int r in
      let v = Codec.Reader.int r in
      set t tid ~access i v;
      ""
  | other -> raise (Errors.Server_error ("integer array: unknown op " ^ other))

let create env ~name ~segment ~cells () =
  let pages = ((cells + cells_per_page - 1) / cells_per_page) + 1 in
  let server = Server_lib.create env ~name ~segment ~pages () in
  let t = { server; n_cells = cells } in
  Server_lib.accept_requests server (dispatch t);
  Server_lib.register_name server ~name ~object_id:"array";
  t

let call_get rpc ~dest ~server tid ?access i =
  decode_int_reply
    (Rpc.call rpc ~dest ~server ~tid ~op:"get" ~arg:(encode_get ?access i))

let call_set rpc ~dest ~server tid ?access i v =
  ignore
    (Rpc.call rpc ~dest ~server ~tid ~op:"set" ~arg:(encode_set ?access i v))
