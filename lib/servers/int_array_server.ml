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

let get t tid ?(access = `Random) i =
  Server_lib.enter_operation t.server tid;
  check_range t i;
  let obj = cell_obj t i in
  Server_lib.lock_object t.server tid obj Mode.Read;
  Codec.(decode slot) (Server_lib.read_object t.server ~access obj)

let set t tid ?(access = `Random) i value =
  Server_lib.enter_operation t.server tid;
  check_range t i;
  let obj = cell_obj t i in
  Server_lib.lock_object t.server tid obj Mode.Write;
  Server_lib.pin_and_buffer t.server tid ~access obj;
  Server_lib.write_object t.server obj (Codec.(encode slot) value);
  Server_lib.log_and_unpin t.server tid obj

(* Matchmaker-style stubs ------------------------------------------------ *)

let access =
  Codec.map Codec.bool
    ~read:(fun sequential -> if sequential then `Sequential else `Random)
    ~write:(fun access -> access = `Sequential)

let get_op = Rpc.op "get" Codec.(pair access int) Codec.int

let set_op = Rpc.op "set" Codec.(triple access int int) Codec.unit

let create env ~name ~segment ~cells () =
  let pages = ((cells + cells_per_page - 1) / cells_per_page) + 1 in
  let server = Server_lib.create env ~name ~segment ~pages () in
  let t = { server; n_cells = cells } in
  Server_lib.accept_requests server
    (Rpc.serve
       [
         Rpc.handle get_op (fun tid (access, i) -> get t tid ~access i);
         Rpc.handle set_op (fun tid (access, i, v) -> set t tid ~access i v);
       ]);
  Server_lib.register_name server ~name ~object_id:"array";
  t

let call_get rpc ~dest ~server tid ?(access = `Random) i =
  Rpc.invoke rpc ~dest ~server tid get_op (access, i)

let call_set rpc ~dest ~server tid ?(access = `Random) i v =
  Rpc.invoke rpc ~dest ~server tid set_op (access, i, v)
