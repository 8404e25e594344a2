open Tabs_storage
open Tabs_wal
open Tabs_lock
open Tabs_core

let max_key_len = 23

let max_value_len = 31

(* Page layout. Every node is one 512-byte page.
   Meta (page 0):   root(8) free_head(8) next_unallocated(8)
   Internal (kind 1): kind(8) nkeys(8) children(15 x 8) keys(14 x 24)
   Leaf (kind 2):     kind(8) nkeys(8) next(8) keys(8 x 24) values(8 x 32)
   Keys and values are stored length-prefixed in fixed slots. *)

let key_slot = 24

let value_slot = 32

let max_internal_keys = 14

let max_leaf_keys = 8

type t = { server : Server_lib.t; pages : int }

let page_obj t page =
  Server_lib.create_object_id t.server ~offset:(page * Page.size)
    ~length:Page.size

let tree_lock_obj t =
  (* the whole-tree lock is represented by the meta page object *)
  page_obj t 0

(* Field accessors over a page image ------------------------------------ *)

let get_i b off = Int64.to_int (Bytes.get_int64_le b off)

let set_i b off v = Bytes.set_int64_le b off (Int64.of_int v)

let get_str b off slot_size =
  let len = Char.code (Bytes.get b off) in
  if len >= slot_size then failwith "btree: corrupt string slot";
  Bytes.sub_string b (off + 1) len

let set_str b off slot_size s =
  assert (String.length s < slot_size);
  Bytes.fill b off slot_size '\000';
  Bytes.set b off (Char.chr (String.length s));
  Bytes.blit_string s 0 b (off + 1) (String.length s)

(* meta *)
let meta_root b = get_i b 0

let set_meta_root b v = set_i b 0 v

let meta_next_unalloc b = get_i b 16

let set_meta_next_unalloc b v = set_i b 16 v

(* common node header *)
let node_kind b = get_i b 0

let node_nkeys b = get_i b 8

let set_node_kind b v = set_i b 0 v

let set_node_nkeys b v = set_i b 8 v

(* internal node *)
let int_child b i = get_i b (16 + (8 * i))

let set_int_child b i v = set_i b (16 + (8 * i)) v

let int_key b i = get_str b (136 + (key_slot * i)) key_slot

let set_int_key b i k = set_str b (136 + (key_slot * i)) key_slot k

(* leaf node *)
let leaf_next b = get_i b 16

let set_leaf_next b v = set_i b 16 v

let leaf_key b i = get_str b (24 + (key_slot * i)) key_slot

let set_leaf_key b i k = set_str b (24 + (key_slot * i)) key_slot k

let leaf_value b i = get_str b (216 + (value_slot * i)) value_slot

let set_leaf_value b i v = set_str b (216 + (value_slot * i)) value_slot v

(* Page access ------------------------------------------------------------ *)

let read_page t page =
  Bytes.of_string (Server_lib.read_object t.server (page_obj t page))

(* Modify one page under value logging: buffer old image, apply [f],
   log old/new, unpin. *)
let modify_page t tid page f =
  let obj = page_obj t page in
  Server_lib.pin_and_buffer t.server tid obj;
  let image = Bytes.of_string (Server_lib.read_object t.server obj) in
  f image;
  Server_lib.write_object t.server obj (Bytes.to_string image);
  Server_lib.log_and_unpin t.server tid obj

(* Recoverable storage allocator: pop the free list or bump the
   high-water mark; all changes are value-logged so an aborting
   transaction returns its pages. *)
let alloc_page t tid =
  let meta = read_page t 0 in
  let free_head = get_i meta 8 in
  if free_head <> 0 then begin
    let free_node = read_page t free_head in
    let next_free = get_i free_node 16 in
    modify_page t tid 0 (fun m -> set_i m 8 next_free);
    free_head
  end
  else begin
    let page = meta_next_unalloc meta in
    if page >= t.pages then raise (Errors.Server_error "BtreeSegmentFull");
    modify_page t tid 0 (fun m -> set_meta_next_unalloc m (page + 1));
    page
  end

let free_page t tid page =
  let meta = read_page t 0 in
  let old_head = get_i meta 8 in
  modify_page t tid page (fun b ->
      set_node_kind b 0;
      set_i b 16 old_head);
  modify_page t tid 0 (fun m -> set_i m 8 page)

(* Search helpers ---------------------------------------------------------- *)

let check_sizes ~key ~value =
  if String.length key > max_key_len then
    raise (Errors.Server_error "KeyTooLong");
  if String.length key = 0 then raise (Errors.Server_error "EmptyKey");
  match value with
  | Some v when String.length v > max_value_len ->
      raise (Errors.Server_error "ValueTooLong")
  | _ -> ()

(* index of first leaf key >= key, or nkeys *)
let leaf_position b key =
  let n = node_nkeys b in
  let rec go i = if i >= n || String.compare (leaf_key b i) key >= 0 then i else go (i + 1) in
  go 0

(* child index to follow in an internal node *)
let internal_child_index b key =
  let n = node_nkeys b in
  let rec go i =
    if i >= n || String.compare key (int_key b i) < 0 then i else go (i + 1)
  in
  go 0

let rec find_leaf t page key =
  let b = read_page t page in
  if node_kind b = 2 then (page, b)
  else find_leaf t (int_child b (internal_child_index b key)) key

(* Lookup ------------------------------------------------------------------- *)

let root_of t = meta_root (read_page t 0)

let lookup t tid ~key =
  Server_lib.enter_operation t.server tid;
  check_sizes ~key ~value:None;
  Server_lib.lock_object t.server tid (tree_lock_obj t) Mode.Read;
  let root = root_of t in
  if root = 0 then None
  else begin
    let _, leaf = find_leaf t root key in
    let pos = leaf_position leaf key in
    if pos < node_nkeys leaf && String.equal (leaf_key leaf pos) key then
      Some (leaf_value leaf pos)
    else None
  end

(* Insert -------------------------------------------------------------------- *)

type split = No_split | Split of string * int (* separator, new right page *)

let shift_leaf_right b ~from ~n =
  for i = n - 1 downto from do
    set_leaf_key b (i + 1) (leaf_key b i);
    set_leaf_value b (i + 1) (leaf_value b i)
  done

let shift_internal_right b ~from ~n =
  for i = n - 1 downto from do
    set_int_key b (i + 1) (int_key b i);
    set_int_child b (i + 2) (int_child b (i + 1))
  done

let rec insert_rec t tid page key value =
  let b = read_page t page in
  if node_kind b = 2 then insert_leaf t tid page key value
  else begin
    let idx = internal_child_index b key in
    match insert_rec t tid (int_child b idx) key value with
    | No_split -> No_split
    | Split (sep, right) ->
        let n = node_nkeys b in
        if n < max_internal_keys then begin
          modify_page t tid page (fun b ->
              shift_internal_right b ~from:idx ~n;
              set_int_key b idx sep;
              set_int_child b (idx + 1) right;
              set_node_nkeys b (n + 1));
          No_split
        end
        else begin
          (* split this internal node: temporarily assemble the n+1
             keys / n+2 children, then distribute around the median *)
          let keys = Array.init n (int_key b) in
          let children = Array.init (n + 1) (int_child b) in
          let all_keys = Array.make (n + 1) "" in
          let all_children = Array.make (n + 2) 0 in
          Array.blit keys 0 all_keys 0 idx;
          all_keys.(idx) <- sep;
          Array.blit keys idx all_keys (idx + 1) (n - idx);
          Array.blit children 0 all_children 0 (idx + 1);
          all_children.(idx + 1) <- right;
          Array.blit children (idx + 1) all_children (idx + 2) (n - idx);
          let mid = (n + 1) / 2 in
          let sep_up = all_keys.(mid) in
          let right_page = alloc_page t tid in
          modify_page t tid right_page (fun rb ->
              Bytes.fill rb 0 Page.size '\000';
              set_node_kind rb 1;
              let rn = n - mid in
              set_node_nkeys rb rn;
              for i = 0 to rn - 1 do
                set_int_key rb i all_keys.(mid + 1 + i)
              done;
              for i = 0 to rn do
                set_int_child rb i all_children.(mid + 1 + i)
              done);
          modify_page t tid page (fun lb ->
              Bytes.fill lb 16 (Page.size - 16) '\000';
              set_node_kind lb 1;
              set_node_nkeys lb mid;
              for i = 0 to mid - 1 do
                set_int_key lb i all_keys.(i)
              done;
              for i = 0 to mid do
                set_int_child lb i all_children.(i)
              done);
          Split (sep_up, right_page)
        end
  end

and insert_leaf t tid page key value =
  let b = read_page t page in
  let n = node_nkeys b in
  let pos = leaf_position b key in
  if pos < n && String.equal (leaf_key b pos) key then begin
    modify_page t tid page (fun b -> set_leaf_value b pos value);
    No_split
  end
  else if n < max_leaf_keys then begin
    modify_page t tid page (fun b ->
        shift_leaf_right b ~from:pos ~n;
        set_leaf_key b pos key;
        set_leaf_value b pos value;
        set_node_nkeys b (n + 1));
    No_split
  end
  else begin
    (* split the leaf around the midpoint, then insert into a side *)
    let mid = (n + 1) / 2 in
    let right_page = alloc_page t tid in
    let old_next = leaf_next b in
    let right_first = leaf_key b mid in
    modify_page t tid right_page (fun rb ->
        Bytes.fill rb 0 Page.size '\000';
        set_node_kind rb 2;
        set_node_nkeys rb (n - mid);
        set_leaf_next rb old_next;
        for i = 0 to n - mid - 1 do
          set_leaf_key rb i (leaf_key b (mid + i));
          set_leaf_value rb i (leaf_value b (mid + i))
        done);
    modify_page t tid page (fun lb ->
        set_node_nkeys lb mid;
        set_leaf_next lb right_page;
        (* clear the moved slots for hygiene *)
        for i = mid to n - 1 do
          set_leaf_key lb i "";
          set_leaf_value lb i ""
        done);
    (* insert into the proper half *)
    let target = if String.compare key right_first < 0 then page else right_page in
    (match insert_leaf t tid target key value with
    | No_split -> ()
    | Split _ -> assert false (* halves have room by construction *));
    Split (right_first, right_page)
  end

let insert t tid ~key ~value =
  Server_lib.enter_operation t.server tid;
  check_sizes ~key ~value:(Some value);
  Server_lib.lock_object t.server tid (tree_lock_obj t) Mode.Write;
  let root = root_of t in
  if root = 0 then begin
    let leaf = alloc_page t tid in
    modify_page t tid leaf (fun b ->
        Bytes.fill b 0 Page.size '\000';
        set_node_kind b 2;
        set_node_nkeys b 1;
        set_leaf_key b 0 key;
        set_leaf_value b 0 value);
    modify_page t tid 0 (fun m -> set_meta_root m leaf)
  end
  else
    match insert_rec t tid root key value with
    | No_split -> ()
    | Split (sep, right) ->
        let new_root = alloc_page t tid in
        modify_page t tid new_root (fun b ->
            Bytes.fill b 0 Page.size '\000';
            set_node_kind b 1;
            set_node_nkeys b 1;
            set_int_key b 0 sep;
            set_int_child b 0 root;
            set_int_child b 1 right);
        modify_page t tid 0 (fun m -> set_meta_root m new_root)

(* Delete --------------------------------------------------------------------- *)

let delete t tid ~key =
  Server_lib.enter_operation t.server tid;
  check_sizes ~key ~value:None;
  Server_lib.lock_object t.server tid (tree_lock_obj t) Mode.Write;
  let root = root_of t in
  if root = 0 then false
  else begin
    let page, leaf = find_leaf t root key in
    let n = node_nkeys leaf in
    let pos = leaf_position leaf key in
    if pos < n && String.equal (leaf_key leaf pos) key then begin
      modify_page t tid page (fun b ->
          for i = pos to n - 2 do
            set_leaf_key b i (leaf_key b (i + 1));
            set_leaf_value b i (leaf_value b (i + 1))
          done;
          set_leaf_key b (n - 1) "";
          set_leaf_value b (n - 1) "";
          set_node_nkeys b (n - 1));
      (* a now-empty root leaf returns to the allocator *)
      if n = 1 && page = root then begin
        modify_page t tid 0 (fun m -> set_meta_root m 0);
        free_page t tid page
      end;
      true
    end
    else false
  end

(* Scan ----------------------------------------------------------------------- *)

let rec leftmost_leaf t page =
  let b = read_page t page in
  if node_kind b = 2 then page else leftmost_leaf t (int_child b 0)

let entries t tid =
  Server_lib.enter_operation t.server tid;
  Server_lib.lock_object t.server tid (tree_lock_obj t) Mode.Read;
  let root = root_of t in
  if root = 0 then []
  else begin
    let rec walk page acc =
      if page = 0 then List.rev acc
      else begin
        let b = read_page t page in
        let acc =
          List.fold_left
            (fun acc i -> (leaf_key b i, leaf_value b i) :: acc)
            acc
            (List.init (node_nkeys b) Fun.id)
        in
        walk (leaf_next b) acc
      end
    in
    walk (leftmost_leaf t root) []
  end

let size t tid = List.length (entries t tid)

(* Invariants -------------------------------------------------------------------- *)

let check_invariants t tid =
  Server_lib.enter_operation t.server tid;
  Server_lib.lock_object t.server tid (tree_lock_obj t) Mode.Read;
  let root = root_of t in
  if root <> 0 then begin
    let rec depth_of page =
      let b = read_page t page in
      match node_kind b with
      | 2 -> 1
      | 1 ->
          let n = node_nkeys b in
          if n < 1 then failwith "btree: underfull internal node";
          let depths =
            List.init (n + 1) (fun i -> depth_of (int_child b i))
          in
          List.iter
            (fun d ->
              if d <> List.hd depths then failwith "btree: uneven depth")
            depths;
          (* keys sorted *)
          for i = 0 to n - 2 do
            if String.compare (int_key b i) (int_key b (i + 1)) >= 0 then
              failwith "btree: internal keys unsorted"
          done;
          1 + List.hd depths
      | k -> failwith (Printf.sprintf "btree: bad node kind %d" k)
    in
    ignore (depth_of root);
    let es = entries t tid in
    let rec sorted = function
      | a :: (b :: _ as rest) ->
          if String.compare (fst a) (fst b) >= 0 then
            failwith "btree: leaf chain unsorted";
          sorted rest
      | _ -> ()
    in
    sorted es
  end

(* RPC plumbing --------------------------------------------------------------------- *)

let insert_op = Rpc.op "insert" Codec.(pair string string) Codec.unit

let lookup_op = Rpc.op "lookup" Codec.string Codec.(option string)

let delete_op = Rpc.op "delete" Codec.string Codec.bool

let create env ~name ~segment ?(pages = 512) () =
  let server = Server_lib.create env ~name ~segment ~pages () in
  let t = { server; pages } in
  (* First-time initialization: the high-water mark starts after the
     meta page. This runs at InitServer time, outside any fiber or
     transaction, so it goes straight to the disk image (a fresh
     segment is all zeroes; a recovered one already carries state). *)
  let disk = Tabs_accent.Vm.disk env.Server_lib.vm in
  let meta_pid = { Disk.segment; page = 0 } in
  let meta = Disk.read_nocharge disk meta_pid in
  if Page.get_int meta ~off:16 = 0 then
    Disk.write_nocharge disk meta_pid ~seqno:0
      (Page.update meta (fun b -> set_meta_next_unalloc b 1));
  Server_lib.accept_requests server
    (Rpc.serve
       [
         Rpc.handle insert_op (fun tid (key, value) -> insert t tid ~key ~value);
         Rpc.handle lookup_op (fun tid key -> lookup t tid ~key);
         Rpc.handle delete_op (fun tid key -> delete t tid ~key);
       ]);
  Server_lib.register_name server ~name ~object_id:"btree";
  t

let call_insert rpc ~dest ~server tid ~key ~value =
  Rpc.invoke rpc ~dest ~server tid insert_op (key, value)

let call_lookup rpc ~dest ~server tid ~key =
  Rpc.invoke rpc ~dest ~server tid lookup_op key

let call_delete rpc ~dest ~server tid ~key =
  Rpc.invoke rpc ~dest ~server tid delete_op key
