open Tabs_storage
open Tabs_wal
open Tabs_lock
open Tabs_core

let element_size = 16 (* 8 bytes InUse flag + 8 bytes contents *)

let elements_per_page = Page.size / element_size

type tail_state =
  | Tail_invalid
  | Tail_computing of unit Tabs_sim.Engine.Waitq.t
  | Tail_valid

type t = {
  server : Server_lib.t;
  cap : int;
  mutable tail : int; (* volatile: absolute index of the next free slot *)
  mutable tail_state : tail_state;
      (* invalid until the tail has been recomputed from the InUse bits —
         lazily, on the first operation after server (re)start, once
         crash recovery has restored the segment. The recomputation
         page-faults (and so suspends): concurrent first operations must
         wait on the latch or they could clobber a reserved tail. *)
}

let head_obj t = Server_lib.create_object_id t.server ~offset:0 ~length:8

let element_obj t index =
  let slot = index mod t.cap in
  let page = 1 + (slot / elements_per_page) in
  let within = slot mod elements_per_page in
  Server_lib.create_object_id t.server
    ~offset:((page * Page.size) + (within * element_size))
    ~length:element_size

(* An element is its InUse flag and its contents, two 8-byte ints *)
let element =
  Codec.(map (pair slot slot))
    ~read:(fun (in_use, value) -> (in_use <> 0, value))
    ~write:(fun (in_use, value) -> (Bool.to_int in_use, value))

let read_head t = Codec.(decode slot) (Server_lib.read_object t.server (head_obj t))

let read_element t index =
  Codec.decode element (Server_lib.read_object t.server (element_obj t index))

let tail t = t.tail

(* After a crash the tail is recomputed by examining the head pointer
   and the InUse bits: the queue extends to the farthest in-use slot
   within one capacity of the head. Runs lazily on the first operation,
   by which time crash recovery has restored the segment. *)
let rec ensure_tail t =
  match t.tail_state with
  | Tail_valid -> ()
  | Tail_computing latch ->
      Tabs_sim.Engine.Waitq.wait latch;
      ensure_tail t
  | Tail_invalid ->
      let latch = Tabs_sim.Engine.Waitq.create () in
      t.tail_state <- Tail_computing latch;
      let h = read_head t in
      let extent = ref 0 in
      for k = 1 to t.cap do
        let in_use, _ = read_element t (h + k - 1) in
        if in_use then extent := k
      done;
      t.tail <- h + !extent;
      t.tail_state <- Tail_valid;
      let env = Server_lib.env t.server in
      ignore
        (Tabs_sim.Engine.Waitq.signal_all latch ~engine:env.Server_lib.engine ())

(* Garbage collection, run as a side effect of Enqueue: move the head
   pointer past elements that are unlocked with InUse false. The head is
   failure atomic, so the move is value-logged under the enqueuer's
   transaction (a conservative choice: aborting the enqueue also
   un-moves the head). *)
let collect_garbage t tid =
  let rec scan idx =
    if idx >= t.tail then idx
    else if Server_lib.is_object_locked t.server (element_obj t idx) then idx
    else
      let in_use, _ = read_element t idx in
      if in_use then idx else scan (idx + 1)
  in
  let h = read_head t in
  let h' = scan h in
  if h' > h && Server_lib.conditionally_lock_object t.server tid (head_obj t) Mode.Write
  then begin
    Server_lib.pin_and_buffer t.server tid (head_obj t);
    Server_lib.write_object t.server (head_obj t) (Codec.(encode slot) h');
    Server_lib.log_and_unpin t.server tid (head_obj t)
  end

let enqueue t tid value =
  Server_lib.enter_operation t.server tid;
  ensure_tail t;
  collect_garbage t tid;
  let h = read_head t in
  if t.tail - h >= t.cap then raise (Errors.Server_error "QueueFull");
  (* Reserve the slot before any suspension point: the volatile tail is
     protected only by coroutine monitor semantics. *)
  let index = t.tail in
  t.tail <- index + 1;
  let obj = element_obj t index in
  Server_lib.lock_object t.server tid obj Mode.Write;
  Server_lib.pin_and_buffer t.server tid obj;
  Server_lib.write_object t.server obj (Codec.encode element (true, value));
  Server_lib.log_and_unpin t.server tid obj

(* Scan from the head for an element that is unlocked and InUse; lock
   it, clear InUse, return its contents. *)
let dequeue t tid =
  Server_lib.enter_operation t.server tid;
  ensure_tail t;
  let rec scan idx =
    if idx >= t.tail then raise (Errors.Server_error "QueueEmpty")
    else begin
      let obj = element_obj t idx in
      if Server_lib.is_object_locked t.server obj then scan (idx + 1)
      else
        let in_use, _ = read_element t idx in
        if not in_use then scan (idx + 1)
        else if not (Server_lib.conditionally_lock_object t.server tid obj Mode.Write)
        then scan (idx + 1)
        else
          (* re-read under the lock; the element may have changed while
             the unprotected read was in flight *)
          let in_use, value = read_element t idx in
          if not in_use then scan (idx + 1)
          else begin
            Server_lib.pin_and_buffer t.server tid obj;
            Server_lib.write_object t.server obj
              (Codec.encode element (false, value));
            Server_lib.log_and_unpin t.server tid obj;
            value
          end
    end
  in
  scan (read_head t)

let is_queue_empty t tid =
  Server_lib.enter_operation t.server tid;
  ensure_tail t;
  let rec scan idx =
    if idx >= t.tail then true
    else if Server_lib.is_object_locked t.server (element_obj t idx) then
      scan (idx + 1)
    else
      let in_use, _ = read_element t idx in
      if in_use then false else scan (idx + 1)
  in
  scan (read_head t)

(* RPC plumbing --------------------------------------------------------- *)

let enqueue_op = Rpc.op "enqueue" Codec.int Codec.unit

let dequeue_op = Rpc.op "dequeue" Codec.unit Codec.int

let is_empty_op = Rpc.op "is_empty" Codec.unit Codec.bool

let create env ~name ~segment ~capacity () =
  let pages = 1 + ((capacity + elements_per_page - 1) / elements_per_page) in
  let server = Server_lib.create env ~name ~segment ~pages () in
  let t = { server; cap = capacity; tail = 0; tail_state = Tail_invalid } in
  Server_lib.accept_requests server
    (Rpc.serve
       [
         Rpc.handle enqueue_op (fun tid v -> enqueue t tid v);
         Rpc.handle dequeue_op (fun tid () -> dequeue t tid);
         Rpc.handle is_empty_op (fun tid () -> is_queue_empty t tid);
       ]);
  Server_lib.register_name server ~name ~object_id:"queue";
  t
