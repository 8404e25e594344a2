open Tabs_sim
open Tabs_net

type entry = { name : string; node : int; server : string; object_id : string }

type Network.payload +=
  | Ns_query of { name : string }
  | Ns_reply of { matches : entry list }

type pending = {
  query_name : string;
  enough : entry list -> bool;
  mutable collected : entry list;
  signal : unit Engine.Waitq.t;
}

type t = {
  engine : Engine.t;
  node_id : int;
  cm : Comm_mgr.t;
  mutable table : entry list;
  mutable pending : pending list;
}

let local_matches t name =
  List.filter (fun e -> String.equal e.name name) t.table

let register t ~name ~server ~object_id =
  let entry = { name; node = t.node_id; server; object_id } in
  if not (List.mem entry t.table) then t.table <- entry :: t.table

let deregister t ~name ~server =
  t.table <-
    List.filter
      (fun e -> not (String.equal e.name name && String.equal e.server server))
      t.table

(* Generalized lookup: collect matching entries (local table first, then
   a broadcast round) until [enough] is satisfied or [max_wait] passes.
   The count-based [lookup] and the placement-aware [lookup_owner] are
   both instances of this. *)
let lookup_until t ~name ~enough ~max_wait () =
  let local = local_matches t name in
  if enough local then local
  else begin
    let p =
      { query_name = name; enough; collected = local;
        signal = Engine.Waitq.create () }
    in
    t.pending <- p :: t.pending;
    Comm_mgr.broadcast t.cm (Ns_query { name });
    let deadline = Engine.now t.engine + max_wait in
    let rec wait () =
      if not (p.enough p.collected) then begin
        let remaining = deadline - Engine.now t.engine in
        if remaining > 0 then
          match
            Engine.Waitq.wait_timeout p.signal ~engine:t.engine ~timeout:remaining
          with
          | Some () -> wait ()
          | None -> ()
      end
    in
    wait ();
    t.pending <- List.filter (fun q -> q != p) t.pending;
    p.collected
  end

let lookup t ~name ?(desired = 1) ?(max_wait = 500_000) () =
  lookup_until t ~name
    ~enough:(fun entries -> List.length entries >= desired)
    ~max_wait ()

(* Key-range placement entries: the object id carries the owned key
   range, so directory lookups can answer "who owns key k of keyspace
   X?" without a separate placement service. *)

let range_object_id ~lo ~hi = Printf.sprintf "range:%d:%d" lo hi

let range_of_entry (e : entry) =
  match String.split_on_char ':' e.object_id with
  | [ "range"; lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi -> Some (lo, hi)
      | _ -> None)
  | _ -> None

let register_range t ~name ~server ~lo ~hi =
  register t ~name ~server ~object_id:(range_object_id ~lo ~hi)

let entry_covers key e =
  match range_of_entry e with
  | Some (lo, hi) -> lo <= key && key < hi
  | None -> false

let lookup_owner t ~name ~key ?(max_wait = 500_000) () =
  let entries =
    lookup_until t ~name
      ~enough:(fun entries -> List.exists (entry_covers key) entries)
      ~max_wait ()
  in
  List.find_opt (entry_covers key) entries

let handle_query t ~src name =
  let matches = local_matches t name in
  if matches <> [] then
    Comm_mgr.send_datagram t.cm ~dest:src (Ns_reply { matches })

let handle_reply t matches =
  List.iter
    (fun p ->
      let fresh =
        List.filter
          (fun (e : entry) ->
            String.equal e.name p.query_name && not (List.mem e p.collected))
          matches
      in
      if fresh <> [] then begin
        p.collected <- p.collected @ fresh;
        ignore (Engine.Waitq.signal p.signal ~engine:t.engine ())
      end)
    t.pending

let create engine ~node ~cm =
  let t = { engine; node_id = node; cm; table = []; pending = [] } in
  Comm_mgr.set_broadcast_handler cm (fun ~src payload ->
      match payload with
      | Ns_query { name } -> handle_query t ~src name
      | _ -> ());
  Comm_mgr.add_datagram_handler cm (fun ~src:_ payload ->
      match payload with
      | Ns_reply { matches } -> handle_reply t matches
      | _ -> ());
  t
