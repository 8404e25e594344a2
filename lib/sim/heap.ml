(* Binary min-heap over (key, seq, value); [seq] makes equal keys FIFO so
   the engine is deterministic. The engine's whole event queue: with
   timers cancelled when their wait ends, it holds tens of events.

   Int-only layout: the heap proper is three int arrays — [keys], [seqs]
   and [slots], where [slots.(i)] names the cell of [vals] holding entry
   [i]'s value. A sift moves only ints, so it never reaches the write
   barrier; a push or pop writes [vals] once. [slots] is a permutation of
   [0, capacity): positions [0, size) are the heap's, and positions
   [size, capacity) are the free list, so a push takes the free slot at
   [slots.(size)] and a pop parks the slot it frees at the position the
   heap has just given up. [pos] is the inverse of [slots], so an entry
   can be found by its slot and removed: a handle names the slot and
   the entry's seq, and a stale handle (its entry popped or removed,
   the slot perhaps reused) finds another seq there and does nothing.
   The hot path (min_key / pop / push) never allocates.

   The value array needs a filler for vacant cells; we use an immediate
   forged with [Obj.magic 0]. That is safe for any ['a]: the array is
   created from an immediate (so it is an ordinary, non-float-unboxed
   array) and the filler is only ever stored, never read as an ['a]
   (pop clears the freed cell purely so the GC drops the value). *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array; (* slot -> position *)
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let vacant : unit -> 'a = fun () -> Obj.magic 0

let create () =
  {
    keys = Array.make 64 0;
    seqs = Array.make 64 0;
    slots = Array.init 64 Fun.id;
    pos = Array.init 64 Fun.id;
    vals = Array.make 64 (vacant ());
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0

(* A handle packs (seq, slot) into one int: the slot in the low 24 bits,
   so the heap holds at most 2^24 entries. *)
type handle = int

let slot_bits = 24

let grow t =
  let cap = Array.length t.keys in
  assert (cap < 1 lsl slot_bits);
  let extend a fill = Array.append a (Array.init cap fill) in
  t.keys <- extend t.keys (fun _ -> 0);
  t.seqs <- extend t.seqs (fun _ -> 0);
  t.slots <- extend t.slots (fun i -> cap + i);
  t.pos <- extend t.pos (fun i -> cap + i);
  t.vals <- extend t.vals (fun _ -> vacant ())

(* (key, seq) of position [i] sorts before (key, seq) *)
let[@inline] before t i key seq =
  let k = t.keys.(i) in
  k < key || (k = key && t.seqs.(i) < seq)

let[@inline] place t i key seq slot =
  t.keys.(i) <- key;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  t.pos.(slot) <- i

(* Hole-based sifts: shift entries along the path, write the moving
   entry once. *)
let rec sift_up t i key seq slot =
  let p = (i - 1) / 2 in
  if i > 0 && not (before t p key seq) then begin
    place t i t.keys.(p) t.seqs.(p) t.slots.(p);
    sift_up t p key seq slot
  end
  else place t i key seq slot

let rec sift_down t i key seq slot =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.size && before t (l + 1) t.keys.(l) t.seqs.(l) then l + 1 else l in
  if c < t.size && before t c key seq then begin
    place t i t.keys.(c) t.seqs.(c) t.slots.(c);
    sift_down t c key seq slot
  end
  else place t i key seq slot

let push t ~key value =
  if t.size = Array.length t.keys then grow t;
  let slot = t.slots.(t.size) and seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.vals.(slot) <- value;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) key seq slot;
  (seq lsl slot_bits) lor slot

let min_key t =
  if t.size = 0 then raise Not_found;
  t.keys.(0)

(* Take the entry at position [i] out: the last entry fills the hole
   and sifts whichever way it belongs, and the freed slot is parked at
   the position the heap gives up. *)
let take t i =
  let freed = t.slots.(i) in
  let v = t.vals.(freed) in
  t.vals.(freed) <- vacant ();
  let n = t.size - 1 in
  t.size <- n;
  if i < n then begin
    let key = t.keys.(n) and seq = t.seqs.(n) and slot = t.slots.(n) in
    if i > 0 && not (before t ((i - 1) / 2) key seq) then
      sift_up t i key seq slot
    else sift_down t i key seq slot
  end;
  t.slots.(n) <- freed;
  t.pos.(freed) <- n;
  v

let pop t =
  if t.size = 0 then raise Not_found;
  take t 0

let remove t h =
  let slot = h land ((1 lsl slot_bits) - 1) in
  let i = t.pos.(slot) in
  if i < t.size && t.seqs.(i) = h lsr slot_bits then ignore (take t i)
