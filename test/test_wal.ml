(* Tests for transaction identifiers, object identifiers, the record
   codec, and the log manager. *)

open Tabs_sim
open Tabs_storage
open Tabs_wal

let quick name f = Alcotest.test_case name `Quick f

let in_fiber f =
  let e = Engine.create () in
  let done_ = ref false in
  let _ = Engine.spawn e (fun () -> f e; done_ := true) in
  let _ = Engine.run e in
  if not !done_ then Alcotest.fail "fiber did not finish"

(* Tid ---------------------------------------------------------------- *)

let test_tid_family () =
  let top = Tid.top ~node:3 ~seq:17 in
  let child = Tid.child top ~index:0 in
  let grandchild = Tid.child child ~index:2 in
  Alcotest.(check bool) "top is top" true (Tid.is_top top);
  Alcotest.(check bool) "child is not" false (Tid.is_top child);
  Alcotest.(check bool) "parent of child" true
    (match Tid.parent child with Some p -> Tid.equal p top | None -> false);
  Alcotest.(check bool) "top_level strips" true
    (Tid.equal (Tid.top_level grandchild) top);
  Alcotest.(check bool) "ancestor" true
    (Tid.is_ancestor ~ancestor:top grandchild);
  Alcotest.(check bool) "self ancestor" true
    (Tid.is_ancestor ~ancestor:child child);
  Alcotest.(check bool) "not descendant" false
    (Tid.is_ancestor ~ancestor:grandchild child);
  Alcotest.(check string) "printing" "T3.17.0.2" (Tid.to_string grandchild)

let test_tid_sibling_not_ancestor () =
  let top = Tid.top ~node:1 ~seq:1 in
  let a = Tid.child top ~index:0 and b = Tid.child top ~index:1 in
  Alcotest.(check bool) "siblings unrelated" false (Tid.is_ancestor ~ancestor:a b)

(* Object_id ---------------------------------------------------------- *)

let test_object_pages () =
  let small = Object_id.make ~segment:1 ~offset:100 ~length:8 in
  Alcotest.(check int) "one page" 1 (List.length (Object_id.pages small));
  Alcotest.(check bool) "fits" true (Object_id.fits_one_page small);
  let spanning = Object_id.make ~segment:1 ~offset:510 ~length:8 in
  Alcotest.(check int) "two pages" 2 (List.length (Object_id.pages spanning));
  Alcotest.(check bool) "does not fit" false (Object_id.fits_one_page spanning);
  let exact = Object_id.make ~segment:1 ~offset:512 ~length:512 in
  (match Object_id.pages exact with
  | [ { Disk.segment = 1; page = 1 } ] -> ()
  | _ -> Alcotest.fail "expected exactly page 1");
  let empty = Object_id.make ~segment:1 ~offset:0 ~length:0 in
  Alcotest.(check int) "empty object" 0 (List.length (Object_id.pages empty))

(* Record codec ------------------------------------------------------- *)

let sample_records =
  let tid = Tid.top ~node:2 ~seq:5 in
  let sub = Tid.child tid ~index:1 in
  let obj = Object_id.make ~segment:4 ~offset:64 ~length:8 in
  [
    Record.Update_value
      { tid; obj; old_value = "old!"; new_value = "new!"; prev = Some 12 };
    Record.Update_operation
      {
        tid = sub;
        server = "queue";
        operation = "enqueue";
        undo_arg = "u";
        redo_arg = "r";
        pages = [ { Disk.segment = 4; page = 0 }; { Disk.segment = 4; page = 1 } ];
        prev = None;
      };
    Record.Txn_begin tid;
    Record.Txn_commit tid;
    Record.Txn_abort sub;
    Record.Txn_prepare (tid, 3);
    Record.Txn_end tid;
    Record.Checkpoint
      {
        dirty_pages = [ ({ Disk.segment = 4; page = 7 }, 99) ];
        active_txns = [ (tid, Some 98); (sub, None) ];
        prepared = [ (tid, 3) ];
        acceptor_floor = Some 97;
      };
  ]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      let decoded = Record.decode (Record.encode r) in
      if decoded <> r then
        Alcotest.failf "roundtrip failed for %s" (Record.kind r))
    sample_records

let test_record_rejects_garbage () =
  (match Record.decode (Record.encode (Record.Txn_begin (Tid.top ~node:0 ~seq:0))) with
  | Record.Txn_begin _ -> ()
  | _ -> Alcotest.fail "decoded to wrong variant");
  Alcotest.(check bool) "garbage raises" true
    (try
       ignore (Record.decode "\255\255\255\255\255\255\255\255garbage");
       false
     with Codec.Reader.Malformed _ -> true)

(* Every constructor, each int field drawn from the varint's
   boundaries, small values of either sign, a TM sequence number seeded
   from a clock up to an hour into a run (five varint bytes), or any
   int. *)
let gen_field =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; -1; min_int; max_int ];
        int_range (-200) 200;
        int_bound 3_600_000_000;
        int;
      ])

let gen_record =
  QCheck.Gen.(
    let tid =
      map3
        (fun node seq path -> { Tid.node; seq; path })
        gen_field gen_field
        (list_size (int_bound 3) gen_field)
    in
    let page =
      map2 (fun segment page -> { Disk.segment; page }) gen_field gen_field
    in
    let lsn = opt gen_field in
    let s = string_size (int_bound 20) in
    oneof
      [
        (fun st ->
          Record.Update_value
            {
              tid = tid st;
              obj =
                {
                  Object_id.segment = gen_field st;
                  offset = gen_field st;
                  length = gen_field st;
                };
              old_value = s st;
              new_value = s st;
              prev = lsn st;
            });
        (fun st ->
          Record.Update_operation
            {
              tid = tid st;
              server = s st;
              operation = s st;
              undo_arg = s st;
              redo_arg = s st;
              pages = list_size (int_bound 3) page st;
              prev = lsn st;
            });
        map (fun t -> Record.Txn_begin t) tid;
        map (fun t -> Record.Txn_commit t) tid;
        map (fun t -> Record.Txn_abort t) tid;
        map2 (fun t c -> Record.Txn_prepare (t, c)) tid gen_field;
        map (fun t -> Record.Txn_end t) tid;
        (fun st ->
          Record.Checkpoint
            {
              dirty_pages = list_size (int_bound 3) (pair page gen_field) st;
              active_txns = list_size (int_bound 3) (pair tid lsn) st;
              prepared = list_size (int_bound 3) (pair tid gen_field) st;
              acceptor_floor = lsn st;
            });
        map2
          (fun tid ballot -> Record.Paxos_promise { tid; ballot })
          tid gen_field;
        (fun st ->
          Record.Paxos_accept
            {
              tid = tid st;
              part = gen_field st;
              ballot = gen_field st;
              yes = bool st;
            });
        map2
          (fun tid committed -> Record.Paxos_decision { tid; committed })
          tid bool;
      ])

let prop_decode_never_crashes =
  (* arbitrary bytes either decode to some record or raise Malformed —
     nothing else (no out-of-bounds, no assert failures) *)
  QCheck.Test.make ~name:"decode is total on garbage" ~count:500
    QCheck.(string_of_size (Gen.int_bound 120))
    (fun bytes ->
      match Record.decode bytes with
      | _ -> true
      | exception Codec.Reader.Malformed _ -> true)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record encode/decode roundtrip" ~count:1000
    (QCheck.make gen_record)
    (fun r -> Record.decode (Record.encode r) = r)

let test_varint_bounds () =
  List.iter
    (fun (v, len) ->
      let bytes = Codec.encode Codec.int v in
      Alcotest.(check int) (Printf.sprintf "%d: length" v) len
        (String.length bytes);
      Alcotest.(check int) (Printf.sprintf "%d: roundtrip" v) v
        (Codec.decode Codec.int bytes))
    [
      (0, 1); (-1, 1); (63, 1); (-64, 1); (64, 2); (3_600_000_000, 5);
      (max_int, 9); (min_int, 9);
    ];
  let malformed what decode bytes =
    Alcotest.(check bool) what true
      (match decode bytes with
      | _ -> false
      | exception Codec.Reader.Malformed _ -> true)
  in
  let ints = Codec.(decode (list int)) in
  malformed "ten-byte varint" Codec.(decode int) (String.make 9 '\255' ^ "\001");
  malformed "count above the bytes left" ints "\006\000\000";
  malformed "negative count" ints "\001";
  malformed "negative string length" Codec.(decode string) "\001";
  (* a length near max_int: pos + len overflows to a negative sum *)
  malformed "string length above the bytes left"
    Codec.(decode (pair bool string))
    "\000\254\255\255\255\255\255\255\255\127";
  (* a Paxos decision whose tid path count reads -48 *)
  malformed "negative count in a record" Record.decode "\020aa_"

(* One log page per commit force: a transaction's begin, five
   value-logged cell updates and its commit, and a two-account
   transfer's operation record and commit, each fit in 512 bytes with
   ids, offsets and LSNs of a long run (196 and 88 bytes). *)
let test_commit_fits_one_page () =
  let tid = { Tid.node = 7; seq = 3_600_000_000; path = [] } in
  let slot = Codec.encode Codec.slot in
  let size records =
    List.fold_left (fun n r -> n + String.length (Record.encode r)) 0 records
  in
  let cell i =
    Record.Update_value
      {
        tid;
        obj = Object_id.make ~segment:1 ~offset:(32_760 + (8 * i)) ~length:8;
        old_value = slot min_int;
        new_value = slot max_int;
        prev = Some (10_000_000 + i);
      }
  in
  let five_bytes =
    size ((Record.Txn_begin tid :: List.init 5 cell) @ [ Record.Txn_commit tid ])
  in
  if five_bytes > Page.size then
    Alcotest.failf "five cells: %d bytes" five_bytes;
  let adjustment = Codec.(encode (list (pair int int))) in
  let transfer =
    [
      Record.Update_operation
        {
          tid;
          server = "accounts";
          operation = "adjust";
          undo_arg = adjustment [ (4_095, max_int); (63, min_int) ];
          redo_arg = adjustment [ (4_095, min_int); (63, max_int) ];
          pages =
            [ { Disk.segment = 2; page = 63 }; { Disk.segment = 2; page = 0 } ];
          prev = Some 10_000_000;
        };
      Record.Txn_commit tid;
    ]
  in
  let transfer_bytes = size transfer in
  if transfer_bytes > Page.size then
    Alcotest.failf "transfer: %d bytes" transfer_bytes

(* Byte-format goldens ------------------------------------------------- *)

(* Log bytes and page bytes set virtual time (stable-write sizes, the
   pages a restart reads), so their encodings are pinned: one fixed
   value per record constructor, and every value image and operation
   argument that a fixed run of each data server logs. *)

let md5 s = Digest.to_hex (Digest.string s)

let golden_records =
  let tid = { Tid.node = 2; seq = 70_000; path = [ 1; 3 ] } in
  let obj = Object_id.make ~segment:4 ~offset:520 ~length:16 in
  let page n = { Disk.segment = 4; page = n } in
  [
    ( "update_value",
      Record.Update_value
        { tid; obj; old_value = "old\000"; new_value = "new!"; prev = Some 12 },
      "8b9a8da0b45eaa26d84f452ed7afb700" );
    ( "update_operation",
      Record.Update_operation
        {
          tid;
          server = "queue";
          operation = "enqueue";
          undo_arg = "u";
          redo_arg = "";
          pages = [ page 0; page 1 ];
          prev = None;
        },
      "20b81beaeb043e214e78e1699d0c23d3" );
    ("begin", Record.Txn_begin tid, "dffaafaa67284be4a22520cea4c70a15");
    ( "commit",
      Record.Txn_commit (Tid.top ~node:0 ~seq:1),
      "d928f0cf2cda4a37d4f90b335233af84" );
    ("abort", Record.Txn_abort tid, "ab3a6ef88348c1aff9aa20a4fd201304");
    ( "prepare",
      Record.Txn_prepare (tid, 3),
      "39b604f3f8a7e6cc484a56d95f0e34b7" );
    ("end", Record.Txn_end tid, "950355c3f6cf96712f4286a60c8450ab");
    ( "checkpoint",
      Record.Checkpoint
        {
          dirty_pages = [ (page 7, 99); (page 2, -1) ];
          active_txns = [ (tid, Some 98); (Tid.top ~node:1 ~seq:4, None) ];
          prepared = [ (tid, 3) ];
          acceptor_floor = Some 97;
        },
      "c47be0372ee059a03ab9769cacef8fbf" );
    ( "paxos_promise",
      Record.Paxos_promise { tid; ballot = 33 },
      "3a50c3301f2f07a699929831053471fa" );
    ( "paxos_accept",
      Record.Paxos_accept { tid; part = 1; ballot = 17; yes = true },
      "3c269eda087a23cd816df20934393b37" );
    ( "paxos_decision",
      Record.Paxos_decision { tid; committed = false },
      "7cfe077d765775a2ecece76ebbc1c410" );
  ]

let test_record_byte_goldens () =
  List.iter
    (fun (kind, r, pinned) ->
      let bytes = Record.encode r in
      Alcotest.(check string) (kind ^ " bytes") pinned (md5 bytes);
      if Record.decode bytes <> r then Alcotest.failf "%s: roundtrip failed" kind)
    golden_records

(* The value images and operation arguments node 0's stable log holds
   after [run] in a fiber on a fresh one-node cluster: slot and head
   bytes for value-logging servers, adjustment arguments for the
   account server. *)
let logged_images run =
  let open Tabs_core in
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  Cluster.run_fiber c ~node:0 (fun () -> run node);
  let log = Node.log node in
  let out = Buffer.create 256 in
  Log_manager.iter_forward log ~from:(Log_manager.first_lsn log)
    ~f:(fun _ r ->
      match r with
      | Record.Update_value u ->
          Buffer.add_string out u.old_value;
          Buffer.add_string out u.new_value
      | Record.Update_operation u ->
          Buffer.add_string out u.undo_arg;
          Buffer.add_string out u.redo_arg
      | _ -> ());
  Buffer.contents out

let in_txn node f = Tabs_core.Txn_lib.execute_transaction (Tabs_core.Node.tm node) f

let test_slot_byte_goldens () =
  let open Tabs_core in
  let open Tabs_servers in
  let cells =
    logged_images (fun node ->
        let a =
          Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:80 ()
        in
        in_txn node (fun tid ->
            Int_array_server.set a tid 0 7;
            Int_array_server.set a tid 65 (-1);
            Int_array_server.set a tid 3 max_int))
  in
  let account_slots = ref "" in
  let adjustments =
    logged_images (fun node ->
        let b =
          Account_server.create (Node.env node) ~name:"b" ~segment:1 ~accounts:4 ()
        in
        in_txn node (fun tid -> Account_server.deposit b tid 0 50);
        in_txn node (fun tid -> Account_server.transfer b tid ~from_:0 ~to_:1 20);
        in_txn node (fun tid -> Account_server.credit b tid 2 (-5));
        let server = Account_server.server b in
        account_slots :=
          Server_lib.read_object server
            (Server_lib.create_object_id server ~offset:0 ~length:32))
  in
  let queue =
    logged_images (fun node ->
        let q =
          Weak_queue_server.create (Node.env node) ~name:"q" ~segment:1 ~capacity:8
            ()
        in
        in_txn node (fun tid ->
            Weak_queue_server.enqueue q tid 5;
            Weak_queue_server.enqueue q tid (-6));
        ignore (in_txn node (fun tid -> Weak_queue_server.dequeue q tid));
        in_txn node (fun tid -> Weak_queue_server.enqueue q tid 7))
  in
  let io =
    logged_images (fun node ->
        let d = Io_server.create (Node.env node) ~name:"io" ~segment:1 () in
        let area = Io_server.obtain_io_area d in
        in_txn node (fun tid -> Io_server.writeln_to_area d tid area "hello"))
  in
  List.iter
    (fun (what, bytes, pinned) ->
      Alcotest.(check string) (what ^ " bytes") pinned (md5 bytes))
    [
      ("int array cells", cells, "746277082bfa1874faf93402a14c3c58");
      ("account adjustments", adjustments, "ebd27a364cfa15141f71b7e66ce94761");
      ("account slots", !account_slots, "bcf2ad212b0b1983f2d7c06008019aca");
      ("queue head and elements", queue, "03ef3b02c9c8a499f58590fbd990fa3b");
      ("io area ints", io, "11a5af70472be0b9b6080710fdb6cd98");
    ]

(* Log manager -------------------------------------------------------- *)

let test_log_backward_chain () =
  in_fiber (fun e ->
      let log = Log_manager.attach e (Stable.create ()) in
      let tid = Tid.top ~node:1 ~seq:1 in
      let obj n = Object_id.make ~segment:1 ~offset:(8 * n) ~length:8 in
      let l0 = Log_manager.append_value log ~tid ~obj:(obj 0) ~old_value:"a" ~new_value:"b" in
      let l1 = Log_manager.append_value log ~tid ~obj:(obj 1) ~old_value:"c" ~new_value:"d" in
      let l2 = Log_manager.append_value log ~tid ~obj:(obj 2) ~old_value:"e" ~new_value:"f" in
      Alcotest.(check (option int)) "last lsn" (Some l2) (Log_manager.last_lsn_of log tid);
      (match Log_manager.read log l2 with
      | Record.Update_value u ->
          Alcotest.(check (option int)) "chain l2->l1" (Some l1) u.prev
      | _ -> Alcotest.fail "wrong record");
      match Log_manager.read log l1 with
      | Record.Update_value u ->
          Alcotest.(check (option int)) "chain l1->l0" (Some l0) u.prev;
          (match Log_manager.read log l0 with
          | Record.Update_value u0 ->
              Alcotest.(check (option int)) "chain l0->none" None u0.prev
          | _ -> Alcotest.fail "wrong record")
      | _ -> Alcotest.fail "wrong record")

let test_log_force_group_commit () =
  let e = Engine.create () in
  let log = Log_manager.attach e (Stable.create ()) in
  let _ =
    Engine.spawn e (fun () ->
        let tid = Tid.top ~node:1 ~seq:1 in
        let obj = Object_id.make ~segment:1 ~offset:0 ~length:8 in
        for _ = 1 to 5 do
          ignore
            (Log_manager.append_value log ~tid ~obj ~old_value:"12345678"
               ~new_value:"abcdefgh")
        done;
        Alcotest.(check int) "nothing stable yet" 0 (Log_manager.flushed_lsn log);
        Log_manager.force_all log;
        Alcotest.(check int) "all stable" 5 (Log_manager.flushed_lsn log);
        Alcotest.(check int) "one group force" 1 (Log_manager.force_count log);
        (* Forcing again is free. *)
        Log_manager.force_all log;
        Alcotest.(check int) "idempotent" 1 (Log_manager.force_count log))
  in
  let _ = Engine.run e in
  Alcotest.(check int) "exactly one stable write charged"
    1
    (Metrics.count (Engine.metrics e) Cost_model.Stable_storage_write)

let test_log_partial_force () =
  in_fiber (fun e ->
      let log = Log_manager.attach e (Stable.create ()) in
      let tid = Tid.top ~node:1 ~seq:1 in
      let obj = Object_id.make ~segment:1 ~offset:0 ~length:8 in
      let l0 = Log_manager.append_value log ~tid ~obj ~old_value:"x" ~new_value:"y" in
      let _l1 = Log_manager.append_value log ~tid ~obj ~old_value:"y" ~new_value:"z" in
      Log_manager.force log ~upto:l0;
      Alcotest.(check int) "only l0 stable" (l0 + 1) (Log_manager.flushed_lsn log);
      (* Unflushed records are still readable from the buffer. *)
      match Log_manager.read log (l0 + 1) with
      | Record.Update_value u -> Alcotest.(check string) "buffered" "z" u.new_value
      | _ -> Alcotest.fail "wrong record")

let test_log_survives_restart () =
  let stable = Stable.create () in
  in_fiber (fun e ->
      let log = Log_manager.attach e stable in
      let tid = Tid.top ~node:1 ~seq:1 in
      let obj = Object_id.make ~segment:1 ~offset:0 ~length:8 in
      ignore (Log_manager.append log (Record.Txn_begin tid));
      ignore (Log_manager.append_value log ~tid ~obj ~old_value:"a" ~new_value:"b");
      Log_manager.force_all log;
      (* This one is lost in the crash: *)
      ignore (Log_manager.append_value log ~tid ~obj ~old_value:"b" ~new_value:"c"));
  in_fiber (fun e ->
      let log = Log_manager.attach e stable in
      Alcotest.(check int) "two records survive" 2 (Log_manager.next_lsn log);
      let seen = ref [] in
      Log_manager.iter_forward log ~from:0 ~f:(fun lsn r -> seen := (lsn, r) :: !seen);
      Alcotest.(check int) "forward scan sees both" 2 (List.length !seen))

let test_log_checkpoint_scan () =
  in_fiber (fun e ->
      let log = Log_manager.attach e (Stable.create ()) in
      let tid = Tid.top ~node:1 ~seq:1 in
      Alcotest.(check (option int)) "no checkpoint yet" None (Log_manager.last_checkpoint log);
      ignore (Log_manager.append log (Record.Txn_begin tid));
      let ck =
        Log_manager.append log
          (Record.Checkpoint
             {
               dirty_pages = [];
               active_txns = [];
               prepared = [];
               acceptor_floor = None;
             })
      in
      ignore (Log_manager.append log (Record.Txn_commit tid));
      Log_manager.force_all log;
      Alcotest.(check (option int)) "finds latest" (Some ck) (Log_manager.last_checkpoint log))

let test_log_truncate () =
  in_fiber (fun e ->
      let log = Log_manager.attach e (Stable.create ()) in
      let tid = Tid.top ~node:1 ~seq:1 in
      let obj = Object_id.make ~segment:1 ~offset:0 ~length:8 in
      for _ = 1 to 10 do
        ignore (Log_manager.append_value log ~tid ~obj ~old_value:"a" ~new_value:"b")
      done;
      Log_manager.force_all log;
      Log_manager.truncate log ~keep_from:6;
      Alcotest.(check int) "first lsn" 6 (Log_manager.first_lsn log);
      let seen = ref 0 in
      Log_manager.iter_forward log ~from:0 ~f:(fun _ _ -> incr seen);
      Alcotest.(check int) "scan sees live only" 4 !seen)

(* [Codec.encode] reuses one buffer. A writer that encodes re-entrantly
   gets a fresh buffer, and a writer that raises — nested or not — leaves
   the buffer usable: every result equals the bytes of the same values
   encoded one top-level call at a time. *)
let test_codec_reentrant () =
  let inner = Codec.(pair int string) in
  let boom = Codec.map Codec.int ~read:Fun.id ~write:(fun _ -> failwith "boom") in
  let nested =
    Codec.map Codec.string ~read:(Codec.decode inner) ~write:(fun v ->
        (try ignore (Codec.encode Codec.(pair int boom) (1, 2)) with Failure _ -> ());
        Codec.encode inner v)
  in
  let flat = Codec.(pair int string) in
  let expected =
    Codec.encode (Codec.pair flat Codec.int) ((5, Codec.encode inner (7, "seven")), 9)
  in
  Alcotest.(check string) "re-entrant encode"
    expected
    (Codec.encode Codec.(pair (pair int nested) int) ((5, (7, "seven")), 9));
  Alcotest.(check bool) "raises" true
    (match Codec.encode Codec.(pair string boom) ("partial", 0) with
    | _ -> false
    | exception Failure _ -> true);
  Alcotest.(check string) "after a raise" "\006"
    (Codec.encode Codec.int 3);
  Alcotest.(check string) "re-entrant after a raise"
    expected
    (Codec.encode Codec.(pair (pair int nested) int) ((5, (7, "seven")), 9))

let suites =
  [
    ( "wal.tid",
      [
        quick "family relations" test_tid_family;
        quick "siblings" test_tid_sibling_not_ancestor;
      ] );
    ("wal.object_id", [ quick "page spans" test_object_pages ]);
    ( "wal.record",
      [
        quick "roundtrip samples" test_record_roundtrip;
        quick "rejects garbage" test_record_rejects_garbage;
        QCheck_alcotest.to_alcotest prop_record_roundtrip;
        QCheck_alcotest.to_alcotest prop_decode_never_crashes;
        quick "varint lengths and bounds" test_varint_bounds;
        quick "a commit fits one log page" test_commit_fits_one_page;
        quick "record byte goldens" test_record_byte_goldens;
        quick "slot byte goldens" test_slot_byte_goldens;
        quick "re-entrant and raising writers" test_codec_reentrant;
      ] );
    ( "wal.log",
      [
        quick "backward chain" test_log_backward_chain;
        quick "group commit force" test_log_force_group_commit;
        quick "partial force" test_log_partial_force;
        quick "survives restart" test_log_survives_restart;
        quick "checkpoint scan" test_log_checkpoint_scan;
        quick "truncate" test_log_truncate;
      ] );
  ]
