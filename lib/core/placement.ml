type range = { lo : int; hi : int } (* [lo, hi), indexed by shard *)

type strategy = Ranged of range array | Hashed

type keyspace = { logical : string; strategy : strategy }

type t = {
  topology : Topology.t;
  keyspaces : (string, keyspace) Hashtbl.t;
}

type location = { shard : int; node : int; instance : string; base : int }

let create topology = { topology; keyspaces = Hashtbl.create 8 }

let keyspace t server =
  match Hashtbl.find_opt t.keyspaces server with
  | Some ks -> ks
  | None -> invalid_arg (Printf.sprintf "Placement: keyspace %s not placed" server)

let add_keyspace t server strategy =
  if Hashtbl.mem t.keyspaces server then
    invalid_arg (Printf.sprintf "Placement: keyspace %s already placed" server);
  Hashtbl.replace t.keyspaces server { logical = server; strategy }

let partition t ~server ~keys =
  if keys <= 0 then invalid_arg "Placement.partition: keys <= 0";
  let shards = Topology.shards t.topology in
  (* as even as integer division allows: the first [keys mod shards]
     ranges get one extra key *)
  let per = keys / shards and extra = keys mod shards in
  let lo = ref 0 in
  let ranges =
    Array.init shards (fun s ->
        let width = per + if s < extra then 1 else 0 in
        let r = { lo = !lo; hi = !lo + width } in
        lo := r.hi;
        r)
  in
  add_keyspace t server (Ranged ranges)

let partition_hashed t ~server = add_keyspace t server Hashed

let instance_name t ~server ~shard =
  Printf.sprintf "%s.%s" server (Topology.shard_name t.topology shard)

(* FNV-1a, truncated to OCaml's positive int range: deterministic across
   runs and OCaml versions, unlike [Hashtbl.hash]. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  (* Int64.to_int keeps the low 63 bits, so bit 62 of the shifted hash
     would land in the sign bit; mask it off to stay non-negative *)
  Int64.to_int (Int64.shift_right_logical !h 1) land max_int

let shard_of_ranged server ranges key =
  let n = Array.length ranges in
  (* the true bound is the last non-empty range's [hi]: with more shards
     than keys the trailing ranges are empty ([lo = hi]), and quoting
     [ranges.(n-1).hi] would misreport the valid key space *)
  let bound =
    Array.fold_left (fun b r -> if r.hi > r.lo then max b r.hi else b) 0 ranges
  in
  if key < 0 || key >= bound then
    invalid_arg
      (Printf.sprintf "Placement: key %d outside keyspace %s [0, %d)" key
         server bound);
  (* binary search for the covering range (empty ranges never cover) *)
  let rec find lo hi =
    if lo > hi then
      invalid_arg
        (Printf.sprintf "Placement: key %d uncovered in keyspace %s" key server)
    else begin
      let mid = (lo + hi) / 2 in
      let r = ranges.(mid) in
      if key < r.lo then find lo (mid - 1)
      else if key >= r.hi then find (mid + 1) hi
      else mid
    end
  in
  find 0 (n - 1)

let shard_of t ~server ~key =
  match (keyspace t server).strategy with
  | Ranged ranges -> shard_of_ranged server ranges key
  | Hashed -> invalid_arg (server ^ ": hashed keyspace, use locate_hashed")

let make_location t ~server ~shard ~base =
  {
    shard;
    node = Topology.node_of_shard t.topology shard;
    instance = instance_name t ~server ~shard;
    base;
  }

let locate t ~server ~key =
  match (keyspace t server).strategy with
  | Ranged ranges ->
      let shard = shard_of_ranged server ranges key in
      make_location t ~server ~shard ~base:ranges.(shard).lo
  | Hashed -> invalid_arg (server ^ ": hashed keyspace, use locate_hashed")

let locate_hashed t ~server ~key =
  match (keyspace t server).strategy with
  | Hashed ->
      let shard = fnv1a key mod Topology.shards t.topology in
      make_location t ~server ~shard ~base:0
  | Ranged _ -> invalid_arg (server ^ ": ranged keyspace, use locate")

let shards_of t ~server ~keys =
  List.sort_uniq compare (List.map (fun key -> shard_of t ~server ~key) keys)

let ranges t ~server =
  match (keyspace t server).strategy with
  | Ranged ranges ->
      Array.to_list (Array.mapi (fun s r -> (s, r.lo, r.hi)) ranges)
  | Hashed -> invalid_arg (server ^ ": hashed keyspace has no ranges")

let publish t ns ~server ~only_node =
  match (keyspace t server).strategy with
  | Ranged rs ->
      Array.iteri
        (fun shard r ->
          let node = Topology.node_of_shard t.topology shard in
          let wanted =
            match only_node with None -> true | Some n -> n = node
          in
          if wanted && r.hi > r.lo then
            Tabs_name.Name_server.register_range ns ~name:server
              ~server:(instance_name t ~server ~shard)
              ~lo:r.lo ~hi:r.hi)
        rs
  | Hashed ->
      (* hashed slices own no contiguous range; nothing to advertise *)
      ()

let shard_of_instance instance =
  (* "<logical>.s<shard>" *)
  match String.rindex_opt instance '.' with
  | Some dot
    when dot + 2 <= String.length instance - 1
         && instance.[dot + 1] = 's' ->
      int_of_string_opt
        (String.sub instance (dot + 2) (String.length instance - dot - 2))
  | _ -> None

let location_of_entry (e : Tabs_name.Name_server.entry) =
  match (Tabs_name.Name_server.range_of_entry e, shard_of_instance e.server) with
  | Some (lo, _hi), Some shard ->
      Some { shard; node = e.node; instance = e.server; base = lo }
  | _ -> None
