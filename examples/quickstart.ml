(* Quickstart: a one-node TABS system, one data server, and the three
   things transactions buy you — commit, abort, and crash recovery.

   Run with:  dune exec examples/quickstart.exe *)

open Tabs_core
open Tabs_servers

let () =
  (* A cluster is a set of TABS nodes over a simulated network; every
     node runs the Figure 3-1 processes (Name Server, Communication
     Manager, Recovery Manager, Transaction Manager) over a simulated
     Accent kernel. *)
  let cluster = Cluster.create ~nodes:1 () in
  let node = Cluster.node cluster 0 in

  (* A data server encapsulates objects in a recoverable segment. The
     integer array server is the paper's simplest example. *)
  let array =
    Int_array_server.create (Node.env node) ~name:"array" ~segment:1
      ~cells:1024 ()
  in
  let tm = Node.tm node in

  (* All application code runs in fibers of the simulation. *)
  Cluster.run_fiber cluster ~node:0 (fun () ->
      (* Transactions bracket operations on objects. *)
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set array tid 0 41;
          Int_array_server.set array tid 1 1);

      (* Failure atomicity: an aborted transaction leaves no trace. *)
      let t = Txn_lib.begin_transaction tm () in
      Int_array_server.set array t 0 9999;
      Txn_lib.abort_transaction tm t;

      let v0, v1 =
        Txn_lib.execute_transaction tm (fun tid ->
            (Int_array_server.get array tid 0, Int_array_server.get array tid 1))
      in
      Printf.printf "after commit+abort: cell0=%d cell1=%d (sum %d)\n" v0 v1
        (v0 + v1));

  (* Permanence: crash the node and recover from the write-ahead log. *)
  Node.crash node;
  let restored = ref None in
  let outcome =
    Cluster.run_fiber cluster ~node:0 (fun () ->
        Node.restart node ~reinstall:(fun env ->
            restored :=
              Some
                (Int_array_server.create env ~name:"array" ~segment:1
                   ~cells:1024 ())) ())
  in
  Printf.printf "crash recovery scanned %d log records, rolled back %d losers\n"
    outcome.records_scanned
    (List.length outcome.losers);
  let array = Option.get !restored in
  let v =
    Cluster.run_fiber cluster ~node:0 (fun () ->
        Txn_lib.execute_transaction (Node.tm node) (fun tid ->
            Int_array_server.get array tid 0))
  in
  Printf.printf "cell0 after crash and recovery: %d\n" v;
  if v = 41 then print_endline "quickstart: ok"
  else begin
    print_endline "quickstart: FAILED";
    exit 1
  end
