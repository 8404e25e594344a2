type t = {
  mutable records : string array;
  (* records.(i) holds position first + i *)
  mutable first : int;
  mutable count : int;
  mutable bytes : int;
}

let create () = { records = Array.make 64 ""; first = 0; count = 0; bytes = 0 }

let next t = t.first + t.count

let first t = t.first

let grow t =
  let bigger = Array.make (2 * Array.length t.records) "" in
  Array.blit t.records 0 bigger 0 t.count;
  t.records <- bigger

let append t record =
  if t.count = Array.length t.records then grow t;
  t.records.(t.count) <- record;
  t.count <- t.count + 1;
  t.bytes <- t.bytes + String.length record;
  t.first + t.count - 1

let read t pos =
  if pos < t.first || pos >= next t then raise Not_found;
  t.records.(pos - t.first)

let truncate_prefix t ~keep_from =
  if keep_from > t.first then begin
    let drop = min (keep_from - t.first) t.count in
    for i = 0 to drop - 1 do
      t.bytes <- t.bytes - String.length t.records.(i)
    done;
    let remaining = t.count - drop in
    Array.blit t.records drop t.records 0 remaining;
    Array.fill t.records remaining drop "";
    t.first <- t.first + drop;
    t.count <- remaining
  end

let copy t =
  {
    records = Array.copy t.records;
    first = t.first;
    count = t.count;
    bytes = t.bytes;
  }

let iter t ~f =
  for i = 0 to t.count - 1 do
    f (t.first + i) t.records.(i)
  done

let total_bytes t = t.bytes
