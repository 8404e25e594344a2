(* The engine's event queue: a lazy near/far two-tier structure.

   The dominant schedule in every TABS workload is [delay:0] — wait-queue
   wakeups, fiber spawns, elided hops — and a binary heap is worst-case
   for exactly that push: the new event is the global minimum, so it
   sifts the full depth of the heap on insert and forces a full-depth
   sift-down when popped. The near tier is a plain FIFO ring holding
   only events scheduled for the current instant ([key = now]); they
   are pushed and popped in O(1) and never touch the far heap, however
   many timers it holds. Everything scheduled in the future goes to the
   far tier, the struct-of-arrays {!Heap}.

   Determinism: a single [next_seq] counter spans both tiers, and pop
   order is by (key, seq) exactly as in a single heap. Two invariants
   make the merge trivial:
   - ring events all share one key, [ring_key], and while the ring is
     non-empty no event with a smaller key can exist (the clock only
     reaches [ring_key] by draining everything earlier);
   - a far event with key = [ring_key] was necessarily pushed at an
     earlier instant, so its seq is smaller and it drains first.
   The pop path still compares (key, seq) across tiers, so order is
   correct even without leaning on the second invariant. *)

let vacant : unit -> 'a = fun () -> Obj.magic 0

type 'a t = {
  heap : 'a Heap.t;
  (* near tier: FIFO ring of events for the current instant *)
  mutable ring_vals : 'a array;
  mutable ring_seqs : int array;
  mutable head : int;
  mutable count : int;
  mutable ring_key : int;
  mutable next_seq : int;
}

let create () =
  {
    heap = Heap.create ();
    ring_vals = Array.make 64 (vacant ());
    ring_seqs = Array.make 64 0;
    head = 0;
    count = 0;
    ring_key = min_int;
    next_seq = 0;
  }

let is_empty t = t.count = 0 && Heap.is_empty t.heap

let ring_grow t =
  let cap = Array.length t.ring_vals in
  let vals = Array.make (2 * cap) (vacant ()) in
  let seqs = Array.make (2 * cap) 0 in
  for i = 0 to t.count - 1 do
    let j = (t.head + i) land (cap - 1) in
    vals.(i) <- t.ring_vals.(j);
    seqs.(i) <- t.ring_seqs.(j)
  done;
  t.ring_vals <- vals;
  t.ring_seqs <- seqs;
  t.head <- 0

let ring_push t seq v =
  let cap = Array.length t.ring_vals in
  if t.count = cap then ring_grow t;
  let cap = Array.length t.ring_vals in
  let tail = (t.head + t.count) land (cap - 1) in
  t.ring_vals.(tail) <- v;
  t.ring_seqs.(tail) <- seq;
  t.count <- t.count + 1

let ring_pop t =
  let v = t.ring_vals.(t.head) in
  t.ring_vals.(t.head) <- vacant ();
  t.head <- (t.head + 1) land (Array.length t.ring_vals - 1);
  t.count <- t.count - 1;
  v

let push t ~now ~key v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if key = now && (t.count = 0 || t.ring_key = key) then begin
    if t.count = 0 then t.ring_key <- key;
    ring_push t seq v
  end
  else Heap.push_seq t.heap ~key ~seq v

let min_key t =
  if t.count = 0 then Heap.min_key t.heap
  else if Heap.is_empty t.heap then t.ring_key
  else begin
    let hk = Heap.min_key t.heap in
    if hk < t.ring_key then hk else t.ring_key
  end

let pop t =
  if t.count = 0 then Heap.pop t.heap
  else if Heap.is_empty t.heap then ring_pop t
  else begin
    let hk = Heap.min_key t.heap in
    if
      hk < t.ring_key
      || (hk = t.ring_key && Heap.min_seq t.heap < t.ring_seqs.(t.head))
    then Heap.pop t.heap
    else ring_pop t
  end
