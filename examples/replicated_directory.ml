(* The Section 4.5 scenario: a replicated directory over three nodes
   using weighted voting, surviving the failure of one node.

   Every update runs inside one distributed transaction: the write
   quorum's B-tree representatives are updated on their own nodes and
   the tree-structured two-phase commit makes the change atomic across
   the machines — "committing transactions requires the global
   coordination protocols for multiple node commit".

   Run with:  dune exec examples/replicated_directory.exe *)

open Tabs_core
open Tabs_servers

let () =
  let cluster = Cluster.create ~nodes:3 () in
  (* one directory representative per node *)
  List.iter
    (fun node ->
      ignore
        (Btree_server.create (Node.env node)
           ~name:(Printf.sprintf "rep%d" (Node.id node))
           ~segment:5 ()))
    (Cluster.nodes cluster);
  let n0 = Cluster.node cluster 0 in
  let dir =
    Replicated_directory.create ~rpc:(Node.rpc n0)
      ~replicas:
        [
          { Replicated_directory.node = 0; server = "rep0"; votes = 1 };
          { Replicated_directory.node = 1; server = "rep1"; votes = 1 };
          { Replicated_directory.node = 2; server = "rep2"; votes = 1 };
        ]
      ~read_quorum:2 ~write_quorum:2
  in
  let tm = Node.tm n0 in

  Cluster.run_fiber cluster ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Replicated_directory.update dir tid ~key:"mail-host" ~value:"perq7";
          Replicated_directory.update dir tid ~key:"print-host" ~value:"perq2");
      Printf.printf "registered two directory entries across 3 nodes\n");

  (* One node fails; reads and writes keep working on a 2-vote quorum. *)
  Node.crash (Cluster.node cluster 2);
  Printf.printf "node 2 crashed\n";

  Cluster.run_fiber cluster ~node:0 (fun () ->
      let v =
        Txn_lib.execute_transaction tm (fun tid ->
            Replicated_directory.lookup dir tid ~key:"mail-host")
      in
      Printf.printf "lookup mail-host with node 2 down: %s\n"
        (Option.value v ~default:"<missing>");
      Txn_lib.execute_transaction tm (fun tid ->
          Replicated_directory.update dir tid ~key:"mail-host" ~value:"perq9");
      Printf.printf "updated mail-host to perq9 with node 2 down\n");

  (* Node 2 comes back with a stale copy; the version numbers make the
     read quorum return the newest value anyway. *)
  ignore
    (Cluster.run_fiber cluster ~node:2 (fun () ->
         Node.restart (Cluster.node cluster 2) ~reinstall:(fun env ->
             ignore (Btree_server.create env ~name:"rep2" ~segment:5 ())) ()));
  Printf.printf "node 2 restarted (its copy of mail-host is stale)\n";

  let v, version =
    Cluster.run_fiber cluster ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            ( Replicated_directory.lookup dir tid ~key:"mail-host",
              Replicated_directory.entry_version dir tid ~key:"mail-host" )))
  in
  Printf.printf "lookup mail-host after recovery: %s (version %d)\n"
    (Option.value v ~default:"<missing>")
    version;
  if v = Some "perq9" && version = 2 then
    print_endline "replicated_directory: ok"
  else begin
    print_endline "replicated_directory: FAILED";
    exit 1
  end
