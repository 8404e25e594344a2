open Tabs_sim

type payload = ..

type channel = Datagram | Session | Broadcast

type node_state = {
  mutable up : bool;
  mutable handlers : (channel * (src:int -> payload -> unit)) list;
}

type drop_stats = {
  loss : int;
  partition : int;
  down : int;
  no_handler : int;
}

type t = {
  engine : Engine.t;
  nodes : (int, node_state) Hashtbl.t;
  mutable partitions : (int * int) list;
  mutable loss : float;
  rng : Rng.t;
  mutable drop_loss : int;
  mutable drop_partition : int;
  mutable drop_down : int;
  mutable drop_no_handler : int;
}

let create engine ~seed =
  {
    engine;
    nodes = Hashtbl.create 8;
    partitions = [];
    loss = 0.0;
    rng = Rng.create ~seed;
    drop_loss = 0;
    drop_partition = 0;
    drop_down = 0;
    drop_no_handler = 0;
  }

let engine t = t.engine

let state t node =
  match Hashtbl.find_opt t.nodes node with
  | Some s -> s
  | None ->
      let s = { up = true; handlers = [] } in
      Hashtbl.add t.nodes node s;
      s

let register t ~node ~channel handler =
  let s = state t node in
  s.handlers <- (channel, handler) :: List.remove_assoc channel s.handlers

let set_node_up t ~node up =
  let s = state t node in
  s.up <- up;
  if not up then s.handlers <- []

let pair a b = if a < b then (a, b) else (b, a)

let set_partitioned t a b p =
  let key = pair a b in
  t.partitions <- List.filter (fun k -> k <> key) t.partitions;
  if p then t.partitions <- key :: t.partitions

let partitioned t a b = List.mem (pair a b) t.partitions

let set_loss t p = t.loss <- p

(* The checks keep the original short-circuit order (src up, then
   partition, then the loss roll) so that RNG consumption — and with it
   every seeded run — is unchanged by the per-cause accounting. *)
let transmit t ~src ~dest ~channel ~delay payload =
  let src_state = state t src in
  let dest_ok () = (state t dest).up in
  if not src_state.up then t.drop_down <- t.drop_down + 1
  else if partitioned t src dest then
    t.drop_partition <- t.drop_partition + 1
  else if t.loss > 0.0 && Rng.bool t.rng ~p:t.loss then
    t.drop_loss <- t.drop_loss + 1
  else
    Engine.at t.engine ~delay (fun () ->
        if dest_ok () then begin
          match List.assoc_opt channel (state t dest).handlers with
          | Some handler ->
              ignore
                (Engine.spawn t.engine ~node:dest (fun () ->
                     handler ~src payload))
          | None -> t.drop_no_handler <- t.drop_no_handler + 1
        end
        else t.drop_down <- t.drop_down + 1)

let nodes t = Hashtbl.fold (fun node _ acc -> node :: acc) t.nodes [] |> List.sort compare

let drops t =
  {
    loss = t.drop_loss;
    partition = t.drop_partition;
    down = t.drop_down;
    no_handler = t.drop_no_handler;
  }

let dropped t =
  t.drop_loss + t.drop_partition + t.drop_down + t.drop_no_handler
