module Writer = struct
  type t = Buffer.t
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception Malformed of string

  let need t n =
    if t.pos + n > String.length t.data then
      raise (Malformed "truncated record")
end

type 'a t = { write : Writer.t -> 'a -> unit; read : Reader.t -> 'a }

(* Zigzag folds the sign into bit 0, so small magnitudes of either
   sign stay small; LEB128 then writes 7 bits per byte, low group
   first, the high bit set on every byte but the last. *)
let rec write_varint w u =
  if u land lnot 0x7f = 0 then Buffer.add_char w (Char.unsafe_chr u)
  else begin
    Buffer.add_char w (Char.unsafe_chr (u land 0x7f lor 0x80));
    write_varint w (u lsr 7)
  end

(* A 63-bit int needs at most nine groups of 7 bits *)
let rec read_varint (r : Reader.t) acc shift =
  Reader.need r 1;
  let b = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc
  else if shift >= 56 then raise (Reader.Malformed "varint too long")
  else read_varint r acc (shift + 7)

let int =
  {
    write = (fun w v -> write_varint w ((v lsl 1) lxor (v asr 62)));
    read =
      (fun r ->
        let u = read_varint r 0 0 in
        (u lsr 1) lxor -(u land 1));
  }

let slot =
  {
    write = (fun w v -> Buffer.add_int64_le w (Int64.of_int v));
    read =
      (fun r ->
        Reader.need r 8;
        let v = Int64.to_int (String.get_int64_le r.data r.pos) in
        r.pos <- r.pos + 8;
        v);
  }

let string =
  {
    write =
      (fun w s ->
        int.write w (String.length s);
        Buffer.add_string w s);
    read =
      (fun r ->
        let len = int.read r in
        if len < 0 || len > String.length r.data - r.pos then
          raise (Reader.Malformed "bad length");
        let s = String.sub r.data r.pos len in
        r.pos <- r.pos + len;
        s);
  }

let bool =
  {
    write = (fun w v -> Buffer.add_char w (if v then '\001' else '\000'));
    read =
      (fun r ->
        Reader.need r 1;
        let c = r.data.[r.pos] in
        r.pos <- r.pos + 1;
        match c with
        | '\000' -> false
        | '\001' -> true
        | _ -> raise (Reader.Malformed "bad boolean"));
  }

let unit = { write = (fun _ () -> ()); read = (fun _ -> ()) }

let list c =
  {
    write =
      (fun w xs ->
        int.write w (List.length xs);
        List.iter (c.write w) xs);
    read =
      (fun r ->
        let n = int.read r in
        if n < 0 || n > String.length r.data - r.pos then
          raise (Reader.Malformed "bad list length");
        List.init n (fun _ -> c.read r));
  }

let option c =
  {
    write =
      (fun w -> function
        | None -> bool.write w false
        | Some v ->
            bool.write w true;
            c.write w v);
    read = (fun r -> if bool.read r then Some (c.read r) else None);
  }

let pair a b =
  {
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
  }

let triple a b c =
  {
    write =
      (fun w (x, y, z) ->
        a.write w x;
        b.write w y;
        c.write w z);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        let z = c.read r in
        (x, y, z));
  }

let map c ~read ~write =
  { write = (fun w v -> c.write w (write v)); read = (fun r -> read (c.read r)) }

(* One buffer serves every top-level encode. A writer that encodes
   re-entrantly finds it taken and gets a fresh one; a writer that
   raises hands it back before the exception propagates. *)
let scratch = Buffer.create 256

let scratch_taken = ref false

let encode c v =
  let nested = !scratch_taken in
  let w = if nested then Buffer.create 64 else scratch in
  Buffer.clear w;
  scratch_taken := true;
  match c.write w v with
  | () ->
      scratch_taken := nested;
      Buffer.contents w
  | exception e ->
      scratch_taken := nested;
      raise e

let decode c s =
  let r = { Reader.data = s; pos = 0 } in
  let v = c.read r in
  if r.pos <> String.length s then raise (Reader.Malformed "trailing bytes");
  v
