(* Binary min-heap over (key, seq, value); [seq] makes equal keys FIFO so
   the engine is deterministic.

   Int-only layout: the heap proper is three int arrays — [keys], [seqs]
   and [slots], where [slots.(i)] names the cell of [vals] holding entry
   [i]'s value. A sift moves only ints, so it never reaches the write
   barrier; a push or pop writes [vals] once. [slots] is a permutation of
   [0, capacity): positions [0, size) are the heap's, and positions
   [size, capacity) are the free list, so a push takes the free slot at
   [slots.(size)] and a pop parks the slot it frees at the position the
   heap has just given up.
   The hot path (min_key / min_seq / pop / push_seq) never allocates.

   The value array needs a filler for vacant cells; we use an immediate
   forged with [Obj.magic 0]. That is safe for any ['a]: the array is
   created from an immediate (so it is an ordinary, non-float-unboxed
   array) and the filler is only ever stored, never read as an ['a]
   (pop clears the freed cell purely so the GC drops the value). *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
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
    vals = Array.make 64 (vacant ());
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.keys in
  let extend a fill = Array.append a (Array.init cap fill) in
  t.keys <- extend t.keys (fun _ -> 0);
  t.seqs <- extend t.seqs (fun _ -> 0);
  t.slots <- extend t.slots (fun i -> cap + i);
  t.vals <- extend t.vals (fun _ -> vacant ())

(* (key, seq) of position [i] sorts before (key, seq) *)
let[@inline] before t i key seq =
  let k = t.keys.(i) in
  k < key || (k = key && t.seqs.(i) < seq)

let[@inline] place t i key seq slot =
  t.keys.(i) <- key;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

let push_seq t ~key ~seq value =
  if t.size = Array.length t.keys then grow t;
  let slot = t.slots.(t.size) in
  t.vals.(slot) <- value;
  (* hole-based sift-up: shift later parents down, write once *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && not (before t ((!i - 1) / 2) key seq) do
    let p = (!i - 1) / 2 in
    place t !i t.keys.(p) t.seqs.(p) t.slots.(p);
    i := p
  done;
  place t !i key seq slot;
  if seq >= t.next_seq then t.next_seq <- seq + 1

let push t ~key value = push_seq t ~key ~seq:t.next_seq value

let min_key t =
  if t.size = 0 then raise Not_found;
  t.keys.(0)

let min_seq t =
  if t.size = 0 then raise Not_found;
  t.seqs.(0)

let pop t =
  if t.size = 0 then raise Not_found;
  let freed = t.slots.(0) in
  let v = t.vals.(freed) in
  t.vals.(freed) <- vacant ();
  let n = t.size - 1 in
  t.size <- n;
  (* hole-based sift-down of the displaced last entry *)
  let key = t.keys.(n) and seq = t.seqs.(n) and slot = t.slots.(n) in
  let i = ref 0 in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < n && before t (l + 1) t.keys.(l) t.seqs.(l) then l + 1 else l in
    if c < n && before t c key seq then begin
      place t !i t.keys.(c) t.seqs.(c) t.slots.(c);
      i := c
    end
    else stop := true
  done;
  place t !i key seq slot;
  t.slots.(n) <- freed;
  v
