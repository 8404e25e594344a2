(* Discrete-event engine. Hot-path layout notes:

   - events live in one struct-of-arrays {!Heap}; the run loop uses its
     non-allocating [min_key]/[pop] pair;
   - node crash epochs are a flat int array indexed by node id, so the
     per-resume liveness check is two loads;
   - a suspension is one effect, whose handler passes the suspending
     fiber to the registration closure;
   - [current_node] and [current_fiber] record the running step's fiber
     as two ints: {!charge} and {!fiber_id} read them, and writing them
     costs no write barrier;
   - CPU counters are a short list: no process name is hashed;
   - wait queues are circular buffers with an O(1) live count;
   - a timer that outlives its wait is cancelled, not left to fire as a
     no-op: it leaves the queue and drops its closure at once. *)

exception Killed

type t = {
  mutable now : int;
  events : (unit -> unit) Heap.t;
  metrics : Metrics.t;
  mutable model : Cost_model.t;
  mutable cpu : (string * int ref) list;
  mutable epochs : int array; (* indexed by node id *)
  mutable next_fiber : int;
  mutable tracer : Trace.sink option;
  mutable current_node : int; (* node of the running fiber; -1 = none *)
  mutable current_fiber : int; (* id of the running fiber; -1 = none *)
  mutable events_processed : int;
}

(* [node_id] is -1 for fibers not bound to a node. *)
type fiber = { id : int; node_id : int; epoch : int; engine : t }

let create ?(cost_model = Cost_model.measured) () =
  {
    now = 0;
    events = Heap.create ();
    metrics = Metrics.create ();
    model = cost_model;
    cpu = [];
    epochs = [||];
    next_fiber = 0;
    tracer = None;
    current_node = -1;
    current_fiber = -1;
    events_processed = 0;
  }

let now t = t.now

let events_processed t = t.events_processed

let cost_model t = t.model

let metrics t = t.metrics

let set_tracer t sink = t.tracer <- sink

let tracing t = match t.tracer with None -> false | Some _ -> true

let emit t ev = match t.tracer with None -> () | Some sink -> sink ~time:t.now ev

let schedule t ~delay fn =
  assert (delay >= 0);
  Heap.push t.events ~key:(t.now + delay) fn

let at t ~delay fn = ignore (schedule t ~delay fn)

let node_epoch t node =
  if node >= 0 && node < Array.length t.epochs then t.epochs.(node)
  else 0

let crash_node t node =
  if node < 0 then invalid_arg "Engine.crash_node: negative node";
  if node >= Array.length t.epochs then begin
    let cap = ref (max 8 (Array.length t.epochs * 2)) in
    while node >= !cap do
      cap := !cap * 2
    done;
    let epochs = Array.make !cap 0 in
    Array.blit t.epochs 0 epochs 0 (Array.length t.epochs);
    t.epochs <- epochs
  end;
  t.epochs.(node) <- t.epochs.(node) + 1

let fiber_dead f =
  f.node_id >= 0 && node_epoch f.engine f.node_id <> f.epoch

(* [Suspend reg] hands the suspending fiber and its continuation to
   [reg], which stores them (in a wait queue or a timer event) for later
   resumption. *)
type _ Effect.t +=
  | Suspend : (fiber -> ('a, unit) Effect.Deep.continuation -> unit) -> 'a Effect.t

(* [current_node] and [current_fiber] are set for the duration of a
   fiber step (continue / discontinue / initial match_with) and cleared
   when the step returns — i.e. when the fiber suspends or finishes.
   Steps never nest: everything a running fiber triggers (spawns,
   wakeups) is deferred through the event queue. An exception escaping
   a step aborts the whole run, so no unwind protection is needed
   here. *)
let enter fiber =
  fiber.engine.current_node <- fiber.node_id;
  fiber.engine.current_fiber <- fiber.id

let leave t =
  t.current_node <- -1;
  t.current_fiber <- -1

let resume fiber k v =
  enter fiber;
  if fiber_dead fiber then
    (try Effect.Deep.discontinue k Killed with Killed -> ())
  else Effect.Deep.continue k v;
  leave fiber.engine

let new_fiber t node_id =
  let fiber =
    {
      id = t.next_fiber;
      node_id;
      epoch = (if node_id < 0 then 0 else node_epoch t node_id);
      engine = t;
    }
  in
  t.next_fiber <- t.next_fiber + 1;
  fiber

(* The event that runs [fn]'s first step as [fiber], unless the
   fiber's node has crashed since it was made. *)
let start fiber fn =
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = (fun e -> match e with Killed -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend reg ->
              Some (fun (k : (a, unit) Effect.Deep.continuation) -> reg fiber k)
          | _ -> None);
    }
  in
  fun () ->
    if not (fiber_dead fiber) then begin
      enter fiber;
      Effect.Deep.match_with fn () handler;
      leave fiber.engine
    end

let spawn t ?node fn =
  let node_id =
    match node with
    | None -> -1
    | Some n ->
        if n < 0 then invalid_arg "Engine.spawn: negative node";
        n
  in
  let fiber = new_fiber t node_id in
  at t ~delay:0 (start fiber fn);
  fiber

type timer = Heap.handle

let timer t ~node ~delay fn =
  if node < 0 then invalid_arg "Engine.timer: negative node";
  schedule t ~delay (start (new_fiber t node) fn)

let cancel t timer = Heap.remove t.events timer

(* Process every event due by [limit]; returns how many ran. *)
let drain t ~limit =
  let q = t.events in
  let before = t.events_processed in
  let running = ref true in
  while !running do
    if Heap.is_empty q then running := false
    else begin
      let key = Heap.min_key q in
      if key > limit then running := false
      else begin
        let fn = Heap.pop q in
        t.now <- key;
        t.events_processed <- t.events_processed + 1;
        fn ()
      end
    end
  done;
  t.events_processed - before

let run t = drain t ~limit:max_int

let run_until t ~time =
  ignore (drain t ~limit:time);
  if t.now < time then t.now <- time

let fiber_id t =
  if t.current_fiber < 0 then invalid_arg "Engine.fiber_id: not inside a fiber";
  t.current_fiber

let delay micros =
  if micros < 0 then invalid_arg "Engine.delay: negative";
  Effect.perform
    (Suspend
       (fun fiber k ->
         at fiber.engine ~delay:micros (fun () -> resume fiber k ())))

let record_only t prim = Metrics.record t.metrics prim

let elide t prim = Metrics.record_elided t.metrics prim

(* Per-node rollup: charges paid inside a node-bound fiber are also
   attributed to that node (observational only — no cost, no delay).
   Reads the recorded [current_node]: no effect per charge. *)
let attribute t prim ~num ~den =
  let node = t.current_node in
  if node >= 0 then Metrics.record_node t.metrics ~node prim ~num ~den

let charge t prim =
  record_only t prim;
  attribute t prim ~num:1 ~den:1;
  delay (Cost_model.cost t.model prim)

let charge_fraction t prim ~num ~den =
  Metrics.record_weighted t.metrics prim ~num ~den;
  attribute t prim ~num ~den;
  delay (Cost_model.cost t.model prim * num / den)

let cpu_counter t process =
  match List.assoc process t.cpu with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      t.cpu <- (process, r) :: t.cpu;
      r

let note_cpu t ~process micros =
  let counter = cpu_counter t process in
  counter := !counter + micros

let charge_cpu t ~process micros =
  note_cpu t ~process micros;
  delay micros

let cpu_time t ~process = !(cpu_counter t process)

module Waitq = struct
  type 'a waiter = {
    fiber : fiber;
    k : ('a option, unit) Effect.Deep.continuation;
    mutable woken : bool;
    mutable timeout : timer option;
  }
  (* [woken] is true once the waiter has been signalled or timed out;
     stale entries are skipped by [signal]. *)

  (* Circular buffer of waiters in arrival order, empty until the first
     push, plus a [live] count maintained by [wake]: [waiters] is O(1). *)
  type 'a t = {
    mutable ring : 'a waiter array;
    mutable head : int;
    mutable count : int;
    mutable live : int;
  }

  let vacant : unit -> 'a = fun () -> Obj.magic 0

  let create () =
    { ring = [||]; head = 0; count = 0; live = 0 }

  let ring_grow q =
    let cap = Array.length q.ring in
    let ring = Array.make (max 1 (2 * cap)) (vacant ()) in
    for i = 0 to q.count - 1 do
      ring.(i) <- q.ring.((q.head + i) land (cap - 1))
    done;
    q.ring <- ring;
    q.head <- 0

  let push q w =
    q.live <- q.live + 1;
    if q.count = Array.length q.ring then ring_grow q;
    let cap = Array.length q.ring in
    q.ring.((q.head + q.count) land (cap - 1)) <- w;
    q.count <- q.count + 1

  let enqueue q fiber k =
    let w = { fiber; k; woken = false; timeout = None } in
    push q w;
    w

  (* Waking (by signal or timeout) is the one false->true transition of
     [woken]; it owns the [live] decrement, and a signal cancels the
     timer so that it neither runs nor pins the fiber. *)
  let wake q w v =
    if not w.woken then begin
      w.woken <- true;
      q.live <- q.live - 1;
      let engine = w.fiber.engine in
      Option.iter (cancel engine) w.timeout;
      at engine ~delay:0 (fun () -> resume w.fiber w.k v)
    end

  let wait q =
    match
      Effect.perform (Suspend (fun fiber k -> ignore (enqueue q fiber k)))
    with
    | Some v -> v
    | None -> assert false (* no timer can fire for a plain wait *)

  let wait_timeout q ~engine ~timeout =
    Effect.perform
      (Suspend
         (fun fiber k ->
           let w = enqueue q fiber k in
           w.timeout <- Some (schedule engine ~delay:timeout (fun () -> wake q w None))))

  let rec signal q ~engine v =
    if q.count = 0 then false
    else begin
      let w = q.ring.(q.head) in
      q.ring.(q.head) <- vacant ();
      q.head <- (q.head + 1) land (Array.length q.ring - 1);
      q.count <- q.count - 1;
      if w.woken then signal q ~engine v
      else begin
        wake q w (Some v);
        true
      end
    end

  let signal_all q ~engine v =
    let woken = ref 0 in
    while signal q ~engine v do
      incr woken
    done;
    !woken

  let waiters q = q.live
end
