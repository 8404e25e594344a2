(* Weights are stored in units of 1/1000 of an execution so that the
   paper's fractional primitive counts (halves, and the measured 0.86
   page I/Os per transaction) can be represented exactly enough.

   Two parallel counter sets are kept: [charged] executions actually
   cost their primitive's latency; [elided] executions are hops that an
   Integrated-profile node turned into direct procedure calls — they
   cost nothing but are counted so runs can attribute what the
   architecture removed. *)

(* Hot-path note: [record] / [record_weighted] / [record_node] run on
   every Engine.charge. The primitive index is the O(1)
   [Cost_model.to_int] and the per-node rollup is a flat array of rows
   indexed by node id, so a charge is a handful of int ops. *)

(* [msgs] counts wire-level Communication Manager traffic: every
   network transmission a CM pays for is one wire message, carrying one
   or more frames (more than one only when the comm-batching layer
   coalesces). The ack counters attribute what batching saved. *)

type msgs = {
  mutable wire_messages : int; (* transmissions sent by CMs *)
  mutable carried_frames : int; (* frames those transmissions carried *)
  mutable piggybacked_acks : int; (* acks that rode an outgoing frame *)
  mutable delayed_acks : int; (* standalone acks sent after the ack window *)
  mutable ack_deliveries_covered : int; (* deliveries those acks covered *)
  mutable duplicate_reacks : int; (* re-acks triggered by duplicate frames *)
}

(* [tm] counts commit-protocol pathologies the Transaction Managers
   report: a resolution abandoned means an in-doubt participant (or
   orphan) exhausted its status-query attempts and is still blocked
   with locks held — under 2PC the data stays locked forever. *)
type tm = { mutable resolutions_abandoned : int }

(* [recovery] counts per-node instant-restart page replays by who drove
   them: on demand at first touch, or by the background trickle.
   [pending_pages] is a gauge: per-page chains still parked. *)
type recovery = {
  mutable ondemand_pages : int;
  mutable trickle_pages : int;
  mutable pending_pages : int;
}

(* Per-node rollup of the charged counters, by the node of the fiber
   that paid them (scale-out benches report per-shard load from it).
   Purely observational: entries appear lazily, and nothing reads them
   on the seed paths. [node_rows] is indexed by node id, with a
   zero-length row as the "never charged" sentinel. *)
type t = {
  charged : int array;
  elided : int array;
  msgs : msgs;
  tm : tm;
  recovery_rows : (int, recovery) Hashtbl.t;
  mutable node_rows : int array array;
}

let scale = 1000

let size = Cost_model.count

let idx = Cost_model.to_int

(* A metrics block over the given per-primitive arrays, its other
   counters zero: the live block, or a window ({!snapshot}, {!diff}). *)
let make charged elided =
  {
    charged;
    elided;
    msgs =
      {
        wire_messages = 0;
        carried_frames = 0;
        piggybacked_acks = 0;
        delayed_acks = 0;
        ack_deliveries_covered = 0;
        duplicate_reacks = 0;
      };
    tm = { resolutions_abandoned = 0 };
    recovery_rows = Hashtbl.create 4;
    node_rows = [||];
  }

let create () = make (Array.make size 0) (Array.make size 0)

let msgs t = t.msgs

let tm t = t.tm

let recovery t ~node =
  match Hashtbl.find_opt t.recovery_rows node with
  | Some r -> r
  | None ->
      let r = { ondemand_pages = 0; trickle_pages = 0; pending_pages = 0 } in
      Hashtbl.add t.recovery_rows node r;
      r

let record_weighted t p ~num ~den =
  if den <= 0 then invalid_arg "Metrics.record_weighted: den <= 0";
  let i = idx p in
  t.charged.(i) <- t.charged.(i) + (scale * num / den)

(* creates the row (growing the outer array) on first charge against a
   node *)
let node_row t node =
  if node >= Array.length t.node_rows then begin
    let cap = ref (max 8 (Array.length t.node_rows * 2)) in
    while node >= !cap do
      cap := !cap * 2
    done;
    let rows = Array.make !cap [||] in
    Array.blit t.node_rows 0 rows 0 (Array.length t.node_rows);
    t.node_rows <- rows
  end;
  let row = t.node_rows.(node) in
  if Array.length row > 0 then row
  else begin
    let row = Array.make size 0 in
    t.node_rows.(node) <- row;
    row
  end

let record_node t ~node p ~num ~den =
  if den <= 0 then invalid_arg "Metrics.record_node: den <= 0";
  if node < 0 then invalid_arg "Metrics.record_node: negative node";
  let row = node_row t node in
  let i = idx p in
  row.(i) <- row.(i) + (scale * num / den)

let node_weight t ~node p =
  let units =
    if node < 0 || node >= Array.length t.node_rows then 0
    else
      let row = t.node_rows.(node) in
      if Array.length row = 0 then 0 else row.(idx p)
  in
  float_of_int units /. float_of_int scale

let nodes_tracked t =
  let acc = ref [] in
  for n = Array.length t.node_rows - 1 downto 0 do
    if Array.length t.node_rows.(n) > 0 then acc := n :: !acc
  done;
  !acc

let record t p = record_weighted t p ~num:1 ~den:1

let record_elided t p =
  let i = idx p in
  t.elided.(i) <- t.elided.(i) + scale

let count t p = t.charged.(idx p) / scale

let weight t p = float_of_int t.charged.(idx p) /. float_of_int scale

let elided_weight t p = float_of_int t.elided.(idx p) /. float_of_int scale

let snapshot t = make (Array.copy t.charged) (Array.copy t.elided)

let diff ~later ~earlier =
  let sub a b = Array.init size (fun i -> a.(i) - b.(i)) in
  make (sub later.charged earlier.charged) (sub later.elided earlier.elided)

let weighted_cost t model =
  List.fold_left
    (fun acc p -> acc + (t.charged.(idx p) * Cost_model.cost model p / scale))
    0 Cost_model.all
