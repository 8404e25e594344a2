(* The fourteen benchmarks of Section 5, run against real TABS clusters
   on the virtual clock, with per-phase primitive counting.

   Each benchmark is "among the simplest that can be designed to
   produce the desired system behavior": read-only vs update, no
   paging / sequential paging / random paging, single vs multiple
   operations, one / two / three nodes. The paging benchmarks use a
   5000-page array, more than three times the simulated physical
   memory. *)

open Tabs_sim
open Tabs_core
open Tabs_servers

let paging_pages = 5000

let small_cells = 1024

(* Per-transaction averages for one benchmark run. *)
type result = {
  name : string;
  iterations : int;
  pre : float array; (* per-primitive weights, Cost_model.all order *)
  commit : float array;
  elided : float array;
      (* per-primitive weights the Integrated profile turned into
         procedure calls; all zero under Classic *)
  elapsed_us : float;
  process_us : float; (* TM + RM + CM CPU, all nodes *)
  ds_us : float;
  predicted_us : float; (* sum over primitives of weight x model cost *)
}

type ctx = {
  cluster : Cluster.t;
  rpc : Rpc.registry;
  tm : Tabs_tm.Txn_mgr.t;
  mutable cursor : int;
  rng : Rng.t;
}

type spec = {
  spec_name : string;
  nodes : int;
  paging : bool; (* needs big arrays *)
  body : ctx -> Tabs_wal.Tid.t -> unit;
}

let array_name node = Printf.sprintf "array%d" node

(* benchmark bodies ------------------------------------------------------ *)

let rd ctx tid ~dest ?access cell =
  ignore
    (Int_array_server.call_get ctx.rpc ~dest ~server:(array_name dest) tid
       ?access cell)

let wr ctx tid ~dest ?access cell v =
  Int_array_server.call_set ctx.rpc ~dest ~server:(array_name dest) tid
    ?access cell v

let seq_cell ctx =
  let cell = ctx.cursor mod paging_pages * Int_array_server.cells_per_page in
  ctx.cursor <- ctx.cursor + 1;
  cell

let random_cell ctx =
  Rng.int ctx.rng paging_pages * Int_array_server.cells_per_page

let specs =
  [
    {
      spec_name = "1 Local Read, No Paging";
      nodes = 1;
      paging = false;
      body = (fun ctx tid -> rd ctx tid ~dest:0 0);
    };
    {
      spec_name = "5 Local Read, No Paging";
      nodes = 1;
      paging = false;
      body =
        (fun ctx tid ->
          for _ = 1 to 5 do
            rd ctx tid ~dest:0 0
          done);
    };
    {
      spec_name = "1 Local Read, Seq. Paging";
      nodes = 1;
      paging = true;
      body = (fun ctx tid -> rd ctx tid ~dest:0 ~access:`Sequential (seq_cell ctx));
    };
    {
      spec_name = "1 Local Read, Random Paging";
      nodes = 1;
      paging = true;
      body = (fun ctx tid -> rd ctx tid ~dest:0 ~access:`Random (random_cell ctx));
    };
    {
      spec_name = "1 Local Write, No Paging";
      nodes = 1;
      paging = false;
      body = (fun ctx tid -> wr ctx tid ~dest:0 0 1);
    };
    {
      spec_name = "5 Local Write, No Paging";
      nodes = 1;
      paging = false;
      body =
        (fun ctx tid ->
          (* the paper's benchmark writes the same array element five
             times: five log records, one dirty page *)
          for i = 1 to 5 do
            wr ctx tid ~dest:0 0 i
          done);
    };
    {
      spec_name = "1 Local Write, Seq. Paging";
      nodes = 1;
      paging = true;
      body = (fun ctx tid -> wr ctx tid ~dest:0 ~access:`Sequential (seq_cell ctx) 1);
    };
    {
      spec_name = "1 Lcl Rd, 1 Rem Rd, No Paging";
      nodes = 2;
      paging = false;
      body =
        (fun ctx tid ->
          rd ctx tid ~dest:0 0;
          rd ctx tid ~dest:1 0);
    };
    {
      spec_name = "1 Lcl Rd, 5 Rem Rd, No Paging";
      nodes = 2;
      paging = false;
      body =
        (fun ctx tid ->
          rd ctx tid ~dest:0 0;
          for _ = 1 to 5 do
            rd ctx tid ~dest:1 0
          done);
    };
    {
      spec_name = "1 Lcl Rd, 1 Rem Rd, Seq. Paging";
      nodes = 2;
      paging = true;
      body =
        (fun ctx tid ->
          let cell = seq_cell ctx in
          rd ctx tid ~dest:0 ~access:`Sequential cell;
          rd ctx tid ~dest:1 ~access:`Sequential cell);
    };
    {
      spec_name = "1 Lcl Wr, 1 Rem Wr, No Paging";
      nodes = 2;
      paging = false;
      body =
        (fun ctx tid ->
          wr ctx tid ~dest:0 0 1;
          wr ctx tid ~dest:1 0 1);
    };
    {
      spec_name = "1 Lcl Wr, 1 Rem Wr, Seq. Paging";
      nodes = 2;
      paging = true;
      body =
        (fun ctx tid ->
          let cell = seq_cell ctx in
          wr ctx tid ~dest:0 ~access:`Sequential cell 1;
          wr ctx tid ~dest:1 ~access:`Sequential cell 1);
    };
    {
      spec_name = "1 Lcl Rd, 1 Rem Rd, 1 Rem Rd, NP";
      nodes = 3;
      paging = false;
      body =
        (fun ctx tid ->
          rd ctx tid ~dest:0 0;
          rd ctx tid ~dest:1 0;
          rd ctx tid ~dest:2 0);
    };
    {
      spec_name = "1 Lcl Wr, 1 Rem Wr, 1 Rem Wr, NP";
      nodes = 3;
      paging = false;
      body =
        (fun ctx tid ->
          wr ctx tid ~dest:0 0 1;
          wr ctx tid ~dest:1 0 1;
          wr ctx tid ~dest:2 0 1);
    };
  ]

(* Runner ------------------------------------------------------------------ *)

let to_float_counts m =
  Array.of_list
    (List.map (fun p -> Tabs_sim.Metrics.weight m p) Cost_model.all)

let to_float_elided m =
  Array.of_list
    (List.map (fun p -> Tabs_sim.Metrics.elided_weight m p) Cost_model.all)

let sub_counts a b = Array.mapi (fun i x -> x -. b.(i)) a

let add_into acc x = Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) x

(* [setup cluster spec] deploys [spec]'s array on every node of
   [cluster] and returns the context its body runs in, from node 0. *)
let setup cluster spec =
  let cells =
    if spec.paging then paging_pages * Int_array_server.cells_per_page
    else small_cells
  in
  List.iter
    (fun node ->
      ignore
        (Int_array_server.create (Node.env node)
           ~name:(array_name (Node.id node))
           ~segment:1 ~cells ()))
    (Cluster.nodes cluster);
  let node0 = Cluster.node cluster 0 in
  {
    cluster;
    rpc = Node.rpc node0;
    tm = Node.tm node0;
    cursor = 0;
    rng = Rng.create ~seed:7;
  }

let run_spec ?(iterations = 25) ?(warmup = 5) ?profile ~model spec =
  let cluster =
    Cluster.create ~cost_model:model ?profile ~nodes:spec.nodes ()
  in
  let engine = Cluster.engine cluster in
  let ctx = setup cluster spec in
  let n_prims = List.length Cost_model.all in
  let pre_total = Array.make n_prims 0. in
  let commit_total = Array.make n_prims 0. in
  let elided_total = Array.make n_prims 0. in
  let elapsed = ref 0 in
  let process = ref 0 in
  let ds = ref 0 in
  let cpu_now () =
    ( Engine.cpu_time engine ~process:"tm"
      + Engine.cpu_time engine ~process:"rm"
      + Engine.cpu_time engine ~process:"cm",
      Engine.cpu_time engine ~process:"ds" )
  in
  Cluster.run_fiber cluster ~node:0 (fun () ->
      for i = 1 to warmup + iterations do
        let measured = i > warmup in
        let s0 = Metrics.snapshot (Engine.metrics engine) in
        let t0 = Engine.now engine in
        let tabs0, ds0 = cpu_now () in
        let tid = Txn_lib.begin_transaction ctx.tm () in
        spec.body ctx tid;
        let s1 = Metrics.snapshot (Engine.metrics engine) in
        let committed = Txn_lib.end_transaction ctx.tm tid in
        assert committed;
        let s2 = Metrics.snapshot (Engine.metrics engine) in
        let t1 = Engine.now engine in
        let tabs1, ds1 = cpu_now () in
        if measured then begin
          add_into pre_total
            (sub_counts (to_float_counts s1) (to_float_counts s0));
          add_into commit_total
            (sub_counts (to_float_counts s2) (to_float_counts s1));
          add_into elided_total
            (sub_counts (to_float_elided s2) (to_float_elided s0));
          elapsed := !elapsed + (t1 - t0);
          process := !process + (tabs1 - tabs0);
          ds := !ds + (ds1 - ds0)
        end
      done);
  let n = float_of_int iterations in
  let pre = Array.map (fun x -> x /. n) pre_total in
  let commit = Array.map (fun x -> x /. n) commit_total in
  let predicted =
    List.fold_left
      (fun acc (i, p) ->
        acc
        +. ((pre.(i) +. commit.(i)) *. float_of_int (Cost_model.cost model p)))
      0.
      (List.mapi (fun i p -> (i, p)) Cost_model.all)
  in
  {
    name = spec.spec_name;
    iterations;
    pre;
    commit;
    elided = Array.map (fun x -> x /. n) elided_total;
    elapsed_us = float_of_int !elapsed /. n;
    process_us = float_of_int !process /. n;
    ds_us = float_of_int !ds /. n;
    predicted_us = predicted;
  }

let run_all ?iterations ?warmup ?profile ~model () =
  List.map (run_spec ?iterations ?warmup ?profile ~model) specs

(* The Section 7 composite transactions: five operations, each updating
   two pages. *)
let run_composite ~in_memory ~remote () =
  let nodes = if remote then 2 else 1 in
  let cluster = Cluster.create ~nodes () in
  let engine = Cluster.engine cluster in
  let cells = paging_pages * Int_array_server.cells_per_page in
  List.iter
    (fun node ->
      ignore
        (Int_array_server.create (Node.env node)
           ~name:(array_name (Node.id node))
           ~segment:1 ~cells ()))
    (Cluster.nodes cluster);
  let node0 = Cluster.node cluster 0 in
  let ctx =
    {
      cluster;
      rpc = Node.rpc node0;
      tm = Node.tm node0;
      cursor = 0;
      rng = Rng.create ~seed:11;
    }
  in
  Cluster.run_fiber cluster ~node:0 (fun () ->
      (* optionally pre-touch the pages so the data is in main memory *)
      let base = 100 in
      let cell op page =
        (* two pages per op, distinct pages per op *)
        (base + (op * 2) + page) * Int_array_server.cells_per_page
      in
      if in_memory then
        Txn_lib.execute_transaction ctx.tm (fun tid ->
            for op = 0 to 4 do
              rd ctx tid ~dest:0 (cell op 0);
              rd ctx tid ~dest:0 (cell op 1)
            done);
      let t0 = Engine.now engine in
      Txn_lib.execute_transaction ctx.tm (fun tid ->
          for op = 0 to 4 do
            let dest = if remote then 1 else 0 in
            wr ctx tid ~dest (cell op 0) 1;
            wr ctx tid ~dest (cell op 1) 1
          done);
      Engine.now engine - t0)
