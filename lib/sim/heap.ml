(* Binary min-heap over (key, seq, value); [seq] makes equal keys FIFO so
   the engine is deterministic.

   Struct-of-arrays layout: keys and seqs live in unboxed int arrays so
   every sift comparison is two int loads — no per-entry record, no
   option box, no value deref. The hot path (min_key / min_seq / pop /
   push_seq) never allocates.

   The value array needs a filler for vacant slots; we use an immediate
   forged with [Obj.magic 0]. That is safe for any ['a]: the array is
   created from an immediate (so it is an ordinary, non-float-unboxed
   array) and the filler is only ever stored, never read as an ['a]
   (pop clears the vacated slot purely so the GC drops the value). *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let vacant : unit -> 'a = fun () -> Obj.magic 0

let create () =
  {
    keys = Array.make 64 0;
    seqs = Array.make 64 0;
    vals = Array.make 64 (vacant ());
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0

let grow t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let vals = Array.make cap (vacant ()) in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.vals <- vals

let push_seq t ~key ~seq value =
  if t.size = Array.length t.keys then grow t;
  (* hole-based sift-up: shift larger parents down, write once *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = t.keys.(p) in
    if pk > key || (pk = key && t.seqs.(p) > seq) then begin
      t.keys.(!i) <- pk;
      t.seqs.(!i) <- t.seqs.(p);
      t.vals.(!i) <- t.vals.(p);
      i := p
    end
    else stop := true
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- value;
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
  let v = t.vals.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n = 0 then t.vals.(0) <- vacant ()
  else begin
    (* hole-based sift-down of the displaced last element *)
    let key = t.keys.(n) and seq = t.seqs.(n) in
    let mv = t.vals.(n) in
    t.vals.(n) <- vacant ();
    let i = ref 0 in
    let stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      if l >= n then stop := true
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (t.keys.(r) < t.keys.(l)
               || (t.keys.(r) = t.keys.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let ck = t.keys.(c) in
        if ck < key || (ck = key && t.seqs.(c) < seq) then begin
          t.keys.(!i) <- ck;
          t.seqs.(!i) <- t.seqs.(c);
          t.vals.(!i) <- t.vals.(c);
          i := c
        end
        else stop := true
      end
    done;
    t.keys.(!i) <- key;
    t.seqs.(!i) <- seq;
    t.vals.(!i) <- mv
  end;
  v
