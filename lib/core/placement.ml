type range = { lo : int; hi : int } (* [lo, hi), indexed by shard *)

type location = { shard : int; node : int; instance : string; base : int }

(* [bound] is one past the last key: the last non-empty range's [hi].
   With more shards than keys the trailing ranges are empty ([lo = hi]),
   and quoting [ranges.(n-1).hi] would misreport the valid key space.
   [locations.(s)] routes to shard [s]. The topology is immutable, so
   each record is built once and every lookup returns it. *)
type keyspace = { ranges : range array; bound : int; locations : location array }

type t = {
  topology : Topology.t;
  keyspaces : (string, keyspace) Hashtbl.t;
}

let create topology = { topology; keyspaces = Hashtbl.create 8 }

let keyspace t server =
  match Hashtbl.find t.keyspaces server with
  | ks -> ks
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Placement: keyspace %s not placed" server)

let instance_name t ~server ~shard =
  Printf.sprintf "%s.%s" server (Topology.shard_name t.topology shard)

let partition t ~server ~keys =
  if keys <= 0 then invalid_arg "Placement.partition: keys <= 0";
  if Hashtbl.mem t.keyspaces server then
    invalid_arg (Printf.sprintf "Placement: keyspace %s already placed" server);
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
  let bound =
    Array.fold_left (fun b r -> if r.hi > r.lo then max b r.hi else b) 0 ranges
  in
  let location shard =
    {
      shard;
      node = Topology.node_of_shard t.topology shard;
      instance = instance_name t ~server ~shard;
      base = ranges.(shard).lo;
    }
  in
  let locations = Array.init shards location in
  Hashtbl.replace t.keyspaces server { ranges; bound; locations }

(* binary search for the covering range (empty ranges never cover) *)
let rec find_range server ranges key lo hi =
  if lo > hi then
    invalid_arg
      (Printf.sprintf "Placement: key %d uncovered in keyspace %s" key server);
  let mid = (lo + hi) / 2 in
  let r = ranges.(mid) in
  if key < r.lo then find_range server ranges key lo (mid - 1)
  else if key >= r.hi then find_range server ranges key (mid + 1) hi
  else mid

let locate t ~server ~key =
  let ks = keyspace t server in
  if key < 0 || key >= ks.bound then
    invalid_arg
      (Printf.sprintf "Placement: key %d outside keyspace %s [0, %d)" key
         server ks.bound);
  ks.locations.(find_range server ks.ranges key 0 (Array.length ks.ranges - 1))

let shard_of t ~server ~key = (locate t ~server ~key).shard

let ranges t ~server =
  Array.to_list (Array.mapi (fun s r -> (s, r.lo, r.hi)) (keyspace t server).ranges)

let publish t ns ~server ~only_node =
  let ks = keyspace t server in
  Array.iter2
    (fun loc r ->
      let wanted = Option.fold ~none:true ~some:(( = ) loc.node) only_node in
      if wanted && r.hi > r.lo then
        Tabs_name.Name_server.register_range ns ~name:server
          ~server:loc.instance ~lo:r.lo ~hi:r.hi)
    ks.locations ks.ranges

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
