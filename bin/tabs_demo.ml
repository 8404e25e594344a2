(* tabs-demo: drive TABS scenarios from the command line.

   Subcommands:
     crash       single-node crash/recovery walkthrough
     twophase    distributed commit across N nodes, with optional
                 mid-commit coordinator crash (in-doubt resolution)
     voting      replicated directory with a failing representative
     screen      the I/O server's Figure 4-1 display behaviour
     stats       run one benchmark and print its primitive profile *)

open Cmdliner
open Tabs_sim
open Tabs_core
open Tabs_servers

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Every subcommand accepts --profile: classic is the measured Figure 3-1
   prototype; integrated is the Section 5.3 merged TM/RM/kernel process. *)
let profile_conv =
  let parse s =
    match Profile.of_string s with
    | Some p -> Ok p
    | None ->
        Error (`Msg (Printf.sprintf "unknown profile %S (expected classic or integrated)" s))
  in
  Arg.conv (parse, Profile.pp)

let profile_arg =
  Arg.(
    value
    & opt profile_conv Profile.Classic
    & info [ "profile" ] ~docv:"PROFILE"
        ~doc:
          "Node architecture: $(b,classic) (the measured prototype, with \
           separate Transaction Manager, Recovery Manager, and kernel \
           processes) or $(b,integrated) (the Section 5.3 improved \
           architecture, which merges them and elides their messages).")

(* Every subcommand accepts --group-commit: force batching across
   concurrent committers (off by default, as the paper measured). *)
let group_commit_arg =
  let flag =
    Arg.(
      value & flag
      & info [ "group-commit" ]
          ~doc:
            "Enable group commit on every node: transactions reaching \
             their commit-record force within one batch window share a \
             single stable-storage round instead of paying one each.")
  in
  Term.(
    const (fun on -> if on then Some Tabs_recovery.Group_commit.default else None)
    $ flag)

(* ... and --checkpoint-interval: the background fuzzy-checkpoint and
   log-reclamation daemon (off by default, as the paper measured). *)
let checkpointing_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-interval" ] ~docv:"USEC"
        ~doc:
          "Enable background fuzzy checkpoints on every node, at most one \
           per $(docv) of virtual time: dirty pages trickle out, \
           checkpoint records anchor restart recovery, and the log is \
           reclaimed without foreground flushes.")

(* ... and --comm-batch: the Communication Manager's comm-batching
   layer (off by default, keeping the measured tables byte-identical). *)
let comm_batch_arg =
  let flag =
    Arg.(
      value & flag
      & info [ "comm-batch" ]
          ~doc:
            "Enable comm batching on every node: session acks are \
             delayed so they can piggyback on reverse-direction frames, \
             and frames to the same peer within a flush window coalesce \
             into one multi-frame datagram.")
  in
  Term.(
    const (fun on -> if on then Some Tabs_net.Comm_mgr.default_batching else None)
    $ flag)

(* ... and --commit-protocol: blocking two-phase commit (the paper's
   protocol, the default) or non-blocking Paxos Commit. *)
let commit_protocol_conv =
  let parse s =
    match Tabs_tm.Commit_protocol.of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown commit protocol %S (expected 2pc or paxos)" s))
  in
  Arg.conv (parse, fun ppf p ->
      Format.pp_print_string ppf (Tabs_tm.Commit_protocol.to_string p))

let commit_protocol_arg =
  Arg.(
    value
    & opt commit_protocol_conv Tabs_tm.Commit_protocol.default
    & info [ "commit-protocol" ] ~docv:"PROTOCOL"
        ~doc:
          "Distributed commit protocol: $(b,2pc) (the paper's blocking \
           two-phase commit) or $(b,paxos) (Paxos Commit with 2F+1 = 3 \
           acceptors on nodes 0-2: prepared participants are released \
           by an acceptor takeover even while the coordinator is down).")

(* Every subcommand also accepts --trace (human-readable event dump +
   span summary on stdout) and --trace-jsonl FILE (JSON Lines export). *)
type trace_opts = { dump : bool; jsonl : string option }

let trace_arg =
  let dump =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record structured trace events (transactions, locks, WAL, \
             2PC phases, retransmissions) during the run and print a \
             human-readable dump plus per-transaction span summary.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-jsonl" ] ~docv:"FILE"
          ~doc:"Write the recorded trace as JSON Lines to $(docv).")
  in
  Term.(const (fun dump jsonl -> { dump; jsonl }) $ dump $ jsonl)

let trace_enabled topts = topts.dump || topts.jsonl <> None

let finish_trace topts recorder =
  let entries = Tabs_obs.Recorder.entries recorder in
  Tabs_obs.Recorder.detach recorder;
  (match topts.jsonl with
  | Some path ->
      Tabs_obs.Jsonl.to_file path entries;
      say "trace: wrote %d events to %s" (List.length entries) path
  | None -> ());
  if topts.dump then begin
    say "--- trace (%d events) ---" (List.length entries);
    Tabs_obs.Render.dump stdout entries;
    Tabs_obs.Render.span_summary stdout (Tabs_obs.Span.of_entries entries);
    flush stdout
  end

(* [with_trace topts c run] records [c]'s trace while [run] runs and
   writes it out afterwards. A run that raises still writes its trace,
   with the exception as the last event, and the exception is re-raised
   so the exit status stays the same. *)
let with_trace topts c run =
  if not (trace_enabled topts) then run ()
  else begin
    let recorder = Tabs_obs.Recorder.attach (Cluster.engine c) in
    match run () with
    | result ->
        finish_trace topts recorder;
        result
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Engine.emit (Cluster.engine c)
          (Trace.Note ("uncaught exception: " ^ Printexc.to_string e));
        finish_trace topts recorder;
        Printexc.raise_with_backtrace e bt
  end

(* crash ------------------------------------------------------------------ *)

let run_crash profile group_commit checkpointing comm_batching topts instant =
  let c = Cluster.create ~nodes:1 ~profile ?group_commit ?checkpointing
      ?comm_batching ~instant_restart:instant () in
  with_trace topts c @@ fun () ->
  let node = Cluster.node c 0 in
  let arr = Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:64 () in
  let tm = Node.tm node in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Int_array_server.set arr tid 0 7);
      say "committed cell0 = 7");
  Cluster.spawn c ~node:0 (fun () ->
      let t = Txn_lib.begin_transaction tm () in
      Int_array_server.set arr t 0 666;
      Tabs_wal.Log_manager.force_all (Node.log node);
      Tabs_accent.Vm.flush_all (Node.vm node);
      say "uncommitted cell0 = 666 leaked to disk; crashing now...";
      Engine.delay 10_000_000);
  Cluster.run_until c ~time:5_000_000;
  Node.crash node;
  let holder = ref None in
  let outcome =
    Cluster.run_fiber c ~node:0 (fun () ->
        Node.restart node ~reinstall:(fun env ->
            holder := Some (Int_array_server.create env ~name:"a" ~segment:1 ~cells:64 ())) ())
  in
  say "recovery: scanned %d records, %d loser(s) rolled back"
    outcome.records_scanned
    (List.length outcome.losers);
  if outcome.open_early then
    say "instant restart: node open after %d virtual us (redo parked)"
      outcome.time_to_open_us;
  let arr = Option.get !holder in
  Cluster.run_fiber c ~node:0 (fun () ->
      let v =
        Txn_lib.execute_transaction (Node.tm node) (fun tid ->
            Int_array_server.get arr tid 0)
      in
      say "cell0 after recovery = %d (the uncommitted 666 is gone)" v);
  if instant then begin
    let m = Metrics.recovery (Engine.metrics (Cluster.engine c)) ~node:0 in
    say
      "pages replayed: %d on first touch, %d by trickle, %d at restart; %d \
       still pending"
      m.Metrics.ondemand_pages m.Metrics.trickle_pages m.Metrics.restart_pages
      m.Metrics.pending_pages
  end;
  0

(* twophase ---------------------------------------------------------------- *)

let run_twophase profile group_commit checkpointing comm_batching
    commit_protocol topts nodes kill_coordinator =
  let nodes = max 2 (min 5 nodes) in
  let c = Cluster.create ~nodes ~profile ?group_commit ?checkpointing
      ?comm_batching ~commit_protocol () in
  say "commit protocol: %s" (Tabs_tm.Commit_protocol.to_string commit_protocol);
  with_trace topts c @@ fun () ->
  List.iter
    (fun node ->
      ignore
        (Int_array_server.create (Node.env node)
           ~name:(Printf.sprintf "a%d" (Node.id node))
           ~segment:1 ~cells:64 ()))
    (Cluster.nodes c);
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 in
  let rpc = Node.rpc n0 in
  let the_tid = ref None in
  Cluster.spawn c ~node:0 (fun () ->
      let tid = Txn_lib.begin_transaction tm () in
      the_tid := Some tid;
      for dest = 0 to nodes - 1 do
        Int_array_server.call_set rpc ~dest
          ~server:(Printf.sprintf "a%d" dest)
          tid 0 (100 + dest)
      done;
      say "wrote one cell on each of %d nodes under %s" nodes
        (Tabs_wal.Tid.to_string tid);
      let ok = Txn_lib.end_transaction tm tid in
      say "coordinator's verdict: %s" (if ok then "committed" else "aborted"));
  if kill_coordinator then
    ignore
      (Engine.spawn (Cluster.engine c) (fun () ->
           let rec watch () =
             Engine.delay 1_000;
             let decided =
               match !the_tid with
               | Some tid -> Tabs_tm.Txn_mgr.outcome_of tm tid <> None
               | None -> false
             in
             if decided then begin
               say "! crashing coordinator right after its commit record";
               Node.crash n0
             end
             else watch ()
           in
           watch ()));
  Cluster.run_until c ~time:5_000_000;
  List.iter
    (fun node ->
      let id = Node.id node in
      if id > 0 then begin
        let in_doubt = Tabs_tm.Txn_mgr.in_doubt (Node.tm node) in
        let abandoned = Tabs_tm.Txn_mgr.resolutions_abandoned (Node.tm node) in
        say "node %d: %d transaction(s) in doubt%s" id (List.length in_doubt)
          (if abandoned > 0 then
             Printf.sprintf ", %d resolution(s) abandoned" abandoned
           else "")
      end)
    (Cluster.nodes c);
  if kill_coordinator then begin
    say "restarting coordinator; subordinates query its recovered log...";
    ignore
      (Cluster.run_fiber c ~node:0 (fun () ->
           Node.restart n0 ~reinstall:(fun env ->
               ignore
                 (Int_array_server.create env ~name:"a0" ~segment:1 ~cells:64 ())) ()));
    Cluster.run_until c ~time:(Engine.now (Cluster.engine c) + 60_000_000)
  end;
  List.iter
    (fun node ->
      let id = Node.id node in
      let v =
        Cluster.run_fiber c ~node:id (fun () ->
            Txn_lib.execute_transaction (Node.tm node) (fun tid ->
                Int_array_server.call_get (Node.rpc node) ~dest:id
                  ~server:(Printf.sprintf "a%d" id)
                  tid 0))
      in
      say "node %d cell0 = %d" id v)
    (Cluster.nodes c);
  0

(* voting -------------------------------------------------------------------- *)

let run_voting profile group_commit checkpointing comm_batching topts =
  let c = Cluster.create ~nodes:3 ~profile ?group_commit ?checkpointing
      ?comm_batching () in
  with_trace topts c @@ fun () ->
  List.iter
    (fun node ->
      ignore
        (Btree_server.create (Node.env node)
           ~name:(Printf.sprintf "rep%d" (Node.id node))
           ~segment:5 ()))
    (Cluster.nodes c);
  let n0 = Cluster.node c 0 in
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
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Replicated_directory.update dir tid ~key:"leader" ~value:"node-0");
      say "wrote leader=node-0 to a 2-of-3 write quorum");
  Node.crash (Cluster.node c 1);
  say "node 1 crashed";
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          Replicated_directory.update dir tid ~key:"leader" ~value:"node-2");
      let v =
        Txn_lib.execute_transaction tm (fun tid ->
            Replicated_directory.lookup dir tid ~key:"leader")
      in
      say "with node 1 down: leader=%s (version %d)"
        (Option.value v ~default:"<none>")
        (Txn_lib.execute_transaction tm (fun tid ->
             Replicated_directory.entry_version dir tid ~key:"leader")));
  0

(* screen -------------------------------------------------------------------- *)

let run_screen profile group_commit checkpointing comm_batching topts =
  let c = Cluster.create ~nodes:1 ~profile ?group_commit ?checkpointing
      ?comm_batching () in
  with_trace topts c @@ fun () ->
  let node = Cluster.node c 0 in
  let io = Io_server.create (Node.env node) ~name:"io" ~segment:6 () in
  let tm = Node.tm node in
  Cluster.spawn c ~node:0 (fun () ->
      let a = Io_server.obtain_io_area io in
      Txn_lib.execute_transaction tm (fun tid ->
          Io_server.writeln_to_area io tid a "first line (will commit)");
      (let t = Txn_lib.begin_transaction tm () in
       Io_server.writeln_to_area io t a "second line (will abort)";
       Txn_lib.abort_transaction tm t);
      Txn_lib.execute_transaction tm (fun tid ->
          Io_server.writeln_to_area io tid a "third line (will commit)";
          say "%s" (Io_server.render_text io);
          Engine.delay 10_000));
  Cluster.run c;
  say "--- final screen ---";
  Cluster.run_fiber c ~node:0 (fun () -> say "%s" (Io_server.render_text io));
  0

(* stats --------------------------------------------------------------------- *)

let run_stats profile group_commit checkpointing comm_batching topts index =
  let module W = Tabs_bench.Workloads in
  match if index < 0 then None else List.nth_opt W.specs index with
  | None ->
      say "benchmark index out of range (0..%d):" (List.length W.specs - 1);
      List.iteri (fun i spec -> say "  %2d  %s" i spec.W.spec_name) W.specs;
      1
  | Some spec ->
      say "running benchmark: %s (%d node(s))" spec.spec_name spec.nodes;
      let c = Cluster.create ~nodes:spec.nodes ~profile ?group_commit
        ?checkpointing ?comm_batching () in
      with_trace topts c @@ fun () ->
      let ctx = W.setup c spec in
      let engine = Cluster.engine c in
      Cluster.run_fiber c ~node:0 (fun () ->
          let t0 = Engine.now engine in
          let before = Metrics.snapshot (Engine.metrics engine) in
          for _ = 1 to 10 do
            Txn_lib.execute_transaction ctx.tm (fun tid -> spec.body ctx tid)
          done;
          let elapsed = Engine.now engine - t0 in
          let counts =
            Metrics.diff
              ~later:(Metrics.snapshot (Engine.metrics engine))
              ~earlier:before
          in
          say "10 transactions in %.1f virtual ms (%.1f ms each)"
            (float_of_int elapsed /. 1000.)
            (float_of_int elapsed /. 10_000.);
          say "primitive profile per transaction:";
          List.iter
            (fun p ->
              let w = Metrics.weight counts p /. 10. in
              if w > 0.001 then say "  %-30s %6.2f" (Cost_model.name p) w)
            Cost_model.all;
          if profile = Profile.Integrated then begin
            say "elided by the integrated architecture (per transaction):";
            List.iter
              (fun p ->
                let w = Metrics.elided_weight counts p /. 10. in
                if w > 0.001 then say "  %-30s %6.2f" (Cost_model.name p) w)
              Cost_model.all
          end);
      0

(* scaleout ------------------------------------------------------------------- *)

let run_scaleout profile group_commit checkpointing comm_batching topts shards
    theta cross_frac offered_load =
  let shards = max 1 shards in
  if theta < 0. || theta >= 1. then begin
    say "--zipf must be in [0, 1)";
    1
  end
  else begin
    let config =
      {
        Tabs_bench.Generator.default with
        shards;
        theta;
        cross_frac = Float.max 0. (Float.min 1. cross_frac);
        offered_load = Float.max 1. offered_load;
      }
    in
    say
      "offering %.0f txn/s to %d shard(s) for %.0f virtual seconds\n\
       (Zipf theta %.2f over %d keys, %.0f%% cross-shard%s%s)"
      config.offered_load shards
      (float_of_int config.horizon /. 1_000_000.)
      config.theta config.keys
      (100. *. config.cross_frac)
      (if group_commit <> None then ", group commit" else "")
      (if comm_batching <> None then ", comm batching" else "");
    if trace_enabled topts then
      say "(note: --trace records the whole open-loop run; expect many events)";
    (* the generator builds its own cluster, so tracing attaches after *)
    let stats =
      Tabs_bench.Generator.run ~profile ?group_commit ?checkpointing
        ?comm_batching config
    in
    say "offered %d, admitted %d, shed %d" stats.offered stats.admitted
      stats.shed;
    say "committed %d (%.1f txn/s), aborted %d" stats.committed
      stats.txn_per_sec stats.aborted;
    say "  single-shard: %d committed, p50 %d us, p95 %d us"
      stats.single_committed stats.p50_single_us stats.p95_single_us;
    if stats.cross_committed > 0 then
      say
        "  cross-shard:  %d committed, p50 %d us, p95 %d us (2PC tax: +%d \
         us at p50; %.1f wire msgs per cross commit)"
        stats.cross_committed stats.p50_cross_us stats.p95_cross_us
        (stats.p50_cross_us - stats.p50_single_us)
        stats.msgs_per_cross_commit;
    say "per-shard committed: [%s]"
      (String.concat "; "
         (Array.to_list (Array.map string_of_int stats.per_shard_committed)));
    0
  end

(* cmdliner wiring ------------------------------------------------------------- *)

let crash_cmd =
  let instant =
    Arg.(
      value & flag
      & info [ "instant" ]
          ~doc:
            "Restart with instant restart: the node opens right after the \
             analysis scan and each page's parked log chain is replayed on \
             its first touch (or by the background trickle).")
  in
  Cmd.v (Cmd.info "crash" ~doc:"Single-node crash and recovery walkthrough")
    Term.(
      const run_crash $ profile_arg $ group_commit_arg $ checkpointing_arg
      $ comm_batch_arg $ trace_arg $ instant)

let twophase_cmd =
  let nodes =
    Arg.(value & opt int 3 & info [ "n"; "nodes" ] ~doc:"Number of nodes (2-5).")
  in
  let kill =
    Arg.(
      value & flag
      & info [ "kill-coordinator" ]
          ~doc:"Crash the coordinator between its commit record and the \
                commit datagrams, demonstrating in-doubt blocking and \
                resolution.")
  in
  Cmd.v
    (Cmd.info "twophase" ~doc:"Distributed tree two-phase commit")
    Term.(
      const run_twophase $ profile_arg $ group_commit_arg $ checkpointing_arg
      $ comm_batch_arg $ commit_protocol_arg $ trace_arg $ nodes $ kill)

let voting_cmd =
  Cmd.v
    (Cmd.info "voting" ~doc:"Replicated directory with weighted voting")
    Term.(
      const run_voting $ profile_arg $ group_commit_arg $ checkpointing_arg
      $ comm_batch_arg $ trace_arg)

let screen_cmd =
  Cmd.v
    (Cmd.info "screen" ~doc:"Transactional display output (I/O server)")
    Term.(
      const run_screen $ profile_arg $ group_commit_arg $ checkpointing_arg
      $ comm_batch_arg $ trace_arg)

let stats_cmd =
  let index =
    Arg.(value & pos 0 int 0 & info [] ~docv:"BENCH" ~doc:"Benchmark index.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Primitive-operation profile of one benchmark")
    Term.(
      const run_stats $ profile_arg $ group_commit_arg $ checkpointing_arg
      $ comm_batch_arg $ trace_arg $ index)

let scaleout_cmd =
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of shards (one per node; key ranges spread evenly).")
  in
  let theta =
    Arg.(
      value
      & opt float Tabs_bench.Generator.default.theta
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:
            "Zipfian skew of key popularity, in [0, 1): 0 is uniform, 0.99 \
             is the classic hot-key benchmark setting.")
  in
  let cross =
    Arg.(
      value
      & opt float Tabs_bench.Generator.default.cross_frac
      & info [ "cross-shard" ] ~docv:"FRAC"
          ~doc:
            "Fraction of transactions writing on two different shards \
             (paying tree two-phase commit).")
  in
  let load =
    Arg.(
      value
      & opt float Tabs_bench.Generator.default.offered_load
      & info [ "offered-load" ] ~docv:"TPS"
          ~doc:
            "Open-loop Poisson arrival rate, transactions per virtual \
             second, independent of completions; arrivals beyond the \
             per-node admission bound are shed and counted.")
  in
  Cmd.v
    (Cmd.info "scaleout"
       ~doc:"Skewed open-loop workload against a range-sharded deployment")
    Term.(
      const run_scaleout $ profile_arg $ group_commit_arg $ checkpointing_arg
      $ comm_batch_arg $ trace_arg $ shards $ theta $ cross $ load)

let () =
  let doc = "TABS: distributed transactions for reliable systems (SOSP '85)" in
  let info = Cmd.info "tabs-demo" ~version:"1.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ crash_cmd; twophase_cmd; voting_cmd; screen_cmd; stats_cmd; scaleout_cmd ]))
