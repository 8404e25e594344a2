let size = 512

type t = string

let zero = String.make size '\000'

let update t f =
  let b = Bytes.of_string t in
  f b;
  Bytes.unsafe_to_string b

let blit_string s b ~off =
  if off < 0 || off + String.length s > size then
    invalid_arg "Page.blit_string: out of page bounds";
  Bytes.blit_string s 0 b off (String.length s)

let get_int t ~off = Int64.to_int (String.get_int64_le t off)

let equal = String.equal
