type t = { node : int; seq : int; path : int list }

let top ~node ~seq = { node; seq; path = [] }

let child parent ~index = { parent with path = parent.path @ [ index ] }

let parent t =
  match List.rev t.path with
  | [] -> None
  | _ :: rev_front -> Some { t with path = List.rev rev_front }

let top_level t = { t with path = [] }

let is_top t = t.path = []

let is_ancestor ~ancestor t =
  ancestor.node = t.node && ancestor.seq = t.seq
  &&
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && prefix a' b'
    | _ :: _, [] -> false
  in
  prefix ancestor.path t.path

let equal a b = a.node = b.node && a.seq = b.seq && a.path = b.path

let compare = Stdlib.compare

let pp fmt t =
  Format.fprintf fmt "T%d.%d" t.node t.seq;
  List.iter (fun i -> Format.fprintf fmt ".%d" i) t.path

let to_string t = Format.asprintf "%a" pp t
