(* The Figure 4-1 bank: a trivial bank application using the I/O server
   for transaction-based terminal output and the operation-logged
   account server for balances.

   The example replays the exact scenario of the paper's screen
   snapshot: area one shows a successful $35 deposit (black); in area
   two the node fails during an $80 withdrawal, causing it to abort
   (lines drawn through the output after the screen is restored); in
   area three the user tries again, and the snapshot catches the retry
   still in progress (gray).

   Run with:  dune exec examples/bank.exe *)

open Tabs_sim
open Tabs_core
open Tabs_servers

let checking = 0

let build_servers env =
  let io = Io_server.create env ~name:"io" ~segment:6 () in
  let accounts =
    Account_server.create env ~name:"accounts" ~segment:3 ~accounts:16 ()
  in
  (io, accounts)

let () =
  let cluster = Cluster.create ~nodes:1 () in
  let node = Cluster.node cluster 0 in
  let io, accounts = build_servers (Node.env node) in
  let tm = Node.tm node in

  (* Area one: a committed deposit. *)
  Cluster.run_fiber cluster ~node:0 (fun () ->
      let area1 = Io_server.obtain_io_area io in
      Io_server.provide_input io area1 "35";
      Txn_lib.execute_transaction tm (fun tid ->
          Io_server.writeln_to_area io tid area1 "deposit to checking:";
          let amount = int_of_string (Io_server.read_line_from_area io tid area1) in
          Account_server.deposit accounts tid checking amount;
          Io_server.writeln_to_area io tid area1 "deposited $35"));

  (* Area two: the node fails during a withdrawal; the transaction
     never commits. *)
  Cluster.spawn cluster ~node:0 (fun () ->
      let area2 = Io_server.obtain_io_area io in
      let tid = Txn_lib.begin_transaction tm () in
      Io_server.writeln_to_area io tid area2 "withdraw $80 from checking";
      (* ... the node crashes before this transaction completes *)
      Engine.delay 10_000_000);
  Cluster.run_until cluster ~time:(Engine.now (Cluster.engine cluster) + 2_000_000);
  Tabs_wal.Log_manager.force_all (Node.log node);
  Node.crash node;

  (* The system becomes available again; the I/O server restores the
     screen. *)
  let servers = ref None in
  ignore
    (Cluster.run_fiber cluster ~node:0 (fun () ->
         Node.restart node ~reinstall:(fun env ->
             servers := Some (build_servers env)) ()));
  let io, accounts = Option.get !servers in
  let tm = Node.tm node in

  (* Area three: the user tries again; we snapshot the screen while the
     retry is still in progress. *)
  let snapshot = ref "" in
  Cluster.spawn cluster ~node:0 (fun () ->
      let area3 = Io_server.obtain_io_area io in
      Txn_lib.execute_transaction tm (fun tid ->
          Io_server.writeln_to_area io tid area3 "withdraw $80 from checking";
          Account_server.deposit accounts tid checking (-80);
          (* capture the display mid-transaction, like the paper's
             photographer *)
          snapshot := Io_server.render_text io;
          Engine.delay 50_000));
  Cluster.run cluster;

  print_endline "Figure 4-1 (reproduced): the display after the scenario";
  print_endline "  legend: plain = committed (black), -struck- = aborted,";
  print_endline "          ~tilde~ = in progress (gray), [bracketed] = read input";
  print_endline !snapshot;

  (* Verify the money is right: 35 deposited, 80 withdrawn (committed
     at the end). *)
  let balance =
    Cluster.run_fiber cluster ~node:0 (fun () ->
        Txn_lib.execute_transaction tm (fun tid ->
            Account_server.balance accounts tid checking))
  in
  Printf.printf "\nfinal checking balance: $%d (35 - 80 = -45)\n" balance;
  if balance = -45 then print_endline "bank: ok"
  else begin
    print_endline "bank: FAILED";
    exit 1
  end
