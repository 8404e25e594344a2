(* Tests for the simulated Accent kernel's virtual-memory system (demand
   paging, eviction, pinning, the kernel<->Recovery Manager write-ahead
   protocol). *)

open Tabs_sim
open Tabs_storage
open Tabs_wal
open Tabs_accent

let quick name f = Alcotest.test_case name `Quick f

let in_fiber f =
  let e = Engine.create () in
  let out = ref None in
  let _ = Engine.spawn e (fun () -> out := Some (f e)) in
  let _ = Engine.run e in
  Option.get !out

let obj ~segment ~offset ~length = Object_id.make ~segment ~offset ~length

(* VM ---------------------------------------------------------------------- *)

let make_vm ?(frames = 4) e =
  let disk = Disk.create e in
  Disk.ensure_segment disk 1 ~pages:64;
  Vm.attach e disk ~frames ()

let test_vm_read_write () =
  in_fiber (fun e ->
      let vm = make_vm e in
      let o = obj ~segment:1 ~offset:100 ~length:5 in
      Vm.pin vm o ~access:`Random;
      Vm.write vm o "hello";
      Vm.unpin vm o;
      Alcotest.(check string) "in-memory read" "hello" (Vm.read vm o ~access:`Random))

let test_vm_write_requires_pin () =
  in_fiber (fun e ->
      let vm = make_vm e in
      let o = obj ~segment:1 ~offset:0 ~length:4 in
      ignore (Vm.read vm o ~access:`Random);
      Alcotest.check_raises "unpinned write rejected"
        (Invalid_argument "Vm.write: page not pinned") (fun () ->
          Vm.write vm o "oops"))

let test_vm_eviction_lru () =
  in_fiber (fun e ->
      let vm = make_vm ~frames:2 e in
      let page n = obj ~segment:1 ~offset:(n * Page.size) ~length:4 in
      ignore (Vm.read vm (page 0) ~access:`Random);
      ignore (Vm.read vm (page 1) ~access:`Random);
      ignore (Vm.read vm (page 0) ~access:`Random);
      (* page 1 is the LRU victim *)
      ignore (Vm.read vm (page 2) ~access:`Random);
      Alcotest.(check int) "two resident" 2 (Vm.resident vm);
      let faults_before = Vm.faults vm in
      ignore (Vm.read vm (page 0) ~access:`Random);
      Alcotest.(check int) "page 0 still cached" faults_before (Vm.faults vm);
      ignore (Vm.read vm (page 1) ~access:`Random);
      Alcotest.(check int) "page 1 refaults" (faults_before + 1) (Vm.faults vm))

let test_vm_pinned_not_evicted () =
  in_fiber (fun e ->
      let vm = make_vm ~frames:2 e in
      let page n = obj ~segment:1 ~offset:(n * Page.size) ~length:4 in
      Vm.pin vm (page 0) ~access:`Random;
      ignore (Vm.read vm (page 1) ~access:`Random);
      ignore (Vm.read vm (page 2) ~access:`Random);
      (* page 0 pinned: untouched-but-pinned survives both faults *)
      let faults_before = Vm.faults vm in
      ignore (Vm.read vm (page 0) ~access:`Random);
      Alcotest.(check int) "pinned page never evicted" faults_before (Vm.faults vm);
      Vm.unpin vm (page 0))

let test_vm_wal_protocol_order () =
  (* before any dirty page reaches disk, the hooks must run in order:
     first-dirty at modification, then before-out ahead of the write,
     announcing the highest LSN noted for the page. *)
  in_fiber (fun e ->
      let vm = make_vm ~frames:2 e in
      let events = ref [] in
      Vm.set_wal_hooks vm
        {
          Vm.on_first_dirty = (fun _ -> events := "first-dirty" :: !events);
          before_page_out =
            (fun ~seqno ->
              events := Printf.sprintf "before-out %d" seqno :: !events);
        };
      let page n = obj ~segment:1 ~offset:(n * Page.size) ~length:4 in
      Vm.pin vm (page 0) ~access:`Random;
      Vm.write vm (page 0) "dirt";
      Vm.note_update vm (page 0) ~lsn:5;
      Vm.unpin vm (page 0);
      (* second write on the same dirty page: no second notice, and a
         lower LSN noted again (as an undo re-notes its record) leaves
         the page's highest at 5 *)
      Vm.pin vm (page 0) ~access:`Random;
      Vm.write vm (page 0) "dirx";
      Vm.note_update vm (page 0) ~lsn:3;
      Vm.unpin vm (page 0);
      (* force eviction of page 0 *)
      ignore (Vm.read vm (page 1) ~access:`Random);
      ignore (Vm.read vm (page 2) ~access:`Random);
      ignore (Vm.read vm (page 3) ~access:`Random);
      Alcotest.(check (list string))
        "protocol order"
        [ "first-dirty"; "before-out 5" ]
        (List.rev !events);
      (* the sector sequence number was stamped atomically at page-out *)
      Alcotest.(check int) "seqno stamped" 5
        (Disk.seqno (Vm.disk vm) { Disk.segment = 1; page = 0 }))

let test_vm_dirty_page_list () =
  in_fiber (fun e ->
      let vm = make_vm e in
      let page n = obj ~segment:1 ~offset:(n * Page.size) ~length:4 in
      Vm.pin vm (page 0) ~access:`Random;
      Vm.write vm (page 0) "aaaa";
      Vm.note_update vm (page 0) ~lsn:3;
      Vm.unpin vm (page 0);
      Vm.pin vm (page 2) ~access:`Random;
      Vm.write vm (page 2) "bbbb";
      Vm.note_update vm (page 2) ~lsn:7;
      Vm.unpin vm (page 2);
      Alcotest.(check (list (pair (pair int int) int)))
        "dirty list with recovery LSNs"
        [ ((1, 0), 3); ((1, 2), 7) ]
        (List.map
           (fun ((p : Disk.page_id), lsn) -> ((p.segment, p.page), lsn))
           (Vm.dirty_pages vm));
      Vm.flush_all vm;
      Alcotest.(check int) "clean after flush" 0 (List.length (Vm.dirty_pages vm)))

let test_vm_multipage_object () =
  in_fiber (fun e ->
      let vm = make_vm e in
      let o = obj ~segment:1 ~offset:(Page.size - 3) ~length:6 in
      Vm.pin vm o ~access:`Random;
      Vm.write vm o "abcdef";
      Vm.unpin vm o;
      Alcotest.(check string) "straddling write/read" "abcdef"
        (Vm.read vm o ~access:`Random);
      Alcotest.(check int) "two pages dirty" 2 (List.length (Vm.dirty_pages vm)))

let test_vm_single_frame_pool () =
  (* the degenerate one-frame pool: every access to a different page
     evicts the previous one, dirty pages write back correctly *)
  in_fiber (fun e ->
      let vm = make_vm ~frames:1 e in
      let page n = obj ~segment:1 ~offset:(n * Page.size) ~length:4 in
      Vm.pin vm (page 0) ~access:`Random;
      Vm.write vm (page 0) "aaaa";
      Vm.note_update vm (page 0) ~lsn:1;
      Vm.unpin vm (page 0);
      (* touching page 1 evicts dirty page 0 through the protocol *)
      ignore (Vm.read vm (page 1) ~access:`Random);
      Alcotest.(check int) "one resident" 1 (Vm.resident vm);
      Alcotest.(check string) "page 0 written back" "aaaa"
        (String.sub (Disk.read_nocharge (Vm.disk vm) { Disk.segment = 1; page = 0 })
           0 4);
      (* and faulting it back reads the written data *)
      Alcotest.(check string) "refault reads it" "aaaa"
        (Vm.read vm (page 0) ~access:`Random))

let test_vm_flushed_image_kept () =
  (* the disk keeps the image a page-out handed it when the frame is
     written again *)
  in_fiber (fun e ->
      let vm = make_vm e in
      let o = obj ~segment:1 ~offset:0 ~length:2 in
      let pid = { Disk.segment = 1; page = 0 } in
      let update v lsn =
        Vm.pin vm o ~access:`Random;
        Vm.write vm o v;
        Vm.note_update vm o ~lsn;
        Vm.unpin vm o
      in
      update "v1" 1;
      Vm.flush_page vm pid;
      update "v2" 2;
      Alcotest.(check string) "disk keeps v1" "v1"
        (String.sub (Disk.read_nocharge (Vm.disk vm) pid) 0 2);
      Alcotest.(check string) "frame has v2" "v2" (Vm.read vm o ~access:`Random);
      Alcotest.(check (list (pair int int))) "dirty again" [ (0, 2) ]
        (List.map (fun ((p : Disk.page_id), l) -> (p.page, l)) (Vm.dirty_pages vm)))

(* The LRU list and dirty set against Vm_reference's folds ----------------- *)

type vm_action =
  | V_read of int
  | V_update of int * int (* page, virtual time held pinned *)
  | V_rewrite of int * int (* V_update of the bytes read, logging nothing *)
  | V_late of int * int
      (* V_update noting its LSN only after the hold, as a server writes
         the page before it appends the record *)
  | V_flush of int
  | V_pause of int

(* One buffer pool as the script sees it; [observe] returns what the
   two implementations must agree on after every step: the LRU order,
   the dirty set, the resident and fault counts and each resident
   page's bytes. *)
type pool = {
  v_read : Object_id.t -> string;
  v_update :
    Object_id.t -> string -> logged:bool -> hold:int -> late:bool -> unit;
  v_flush : Disk.page_id -> unit;
  observe :
    unit ->
    Disk.page_id list * (Disk.page_id * int) list * int * int * string list;
}

let whole_page (pid : Disk.page_id) =
  obj ~segment:pid.segment ~offset:(pid.page * Page.size) ~length:Page.size

(* What an update tells the script: [pinned o d] that a pin on [o]'s
   page was taken (+1) or released (-1), [wrote o v] that [o] now holds
   [v], and [noted o] appends a record for [o]'s page to the modelled
   log and returns its LSN, so LSNs grow in the order updates are
   noted. *)
type script = {
  pinned : Object_id.t -> int -> unit;
  wrote : Object_id.t -> string -> unit;
  noted : Object_id.t -> int;
}

let update ~pin ~write ~note ~unpin script o v ~logged ~hold ~late =
  pin o;
  script.pinned o 1;
  write o v;
  script.wrote o v;
  let note () = if logged then note o (script.noted o) in
  if not late then note ();
  Engine.delay hold;
  if late then note ();
  unpin o;
  script.pinned o (-1)

let real_pool e disk ~frames ~before_page_out ~script =
  let vm = Vm.attach e disk ~frames () in
  Vm.set_wal_hooks vm
    {
      Vm.on_first_dirty = ignore;
      before_page_out;
    };
  let observe () =
    let lru = Vm.lru vm and dirty = Vm.dirty_pages vm in
    (* the list's own bookkeeping: every resident frame linked once *)
    if List.length lru <> Vm.resident vm then Alcotest.fail "LRU length <> resident";
    if List.length (List.sort_uniq compare lru) <> List.length lru then
      Alcotest.fail "a frame linked twice";
    if List.length dirty > Vm.resident vm then Alcotest.fail "dirty set > resident";
    (* reading the resident pages least recently used first leaves the
       LRU order as it was *)
    let data = List.map (fun p -> Vm.read vm (whole_page p) ~access:`Random) lru in
    (lru, dirty, Vm.resident vm, Vm.faults vm, data)
  in
  {
    v_read = (fun o -> Vm.read vm o ~access:`Random);
    v_update =
      update script
        ~pin:(Vm.pin vm ~access:`Random)
        ~write:(Vm.write vm)
        ~note:(fun o lsn -> Vm.note_update vm o ~lsn)
        ~unpin:(Vm.unpin vm);
    v_flush = Vm.flush_page vm;
    observe;
  }

let reference_pool e disk ~frames ~before_page_out ~script =
  let vm = Vm_reference.attach e disk ~frames ~before_page_out in
  {
    v_read = Vm_reference.read vm;
    v_update =
      update script ~pin:(Vm_reference.pin vm) ~write:(Vm_reference.write vm)
        ~note:(fun o lsn -> Vm_reference.note_update vm o ~lsn)
        ~unpin:(Vm_reference.unpin vm);
    v_flush = Vm_reference.flush_page vm;
    observe =
      (fun () ->
        let order = Vm_reference.lru vm in
        let data = List.map (fun p -> Vm_reference.read vm (whole_page p)) order in
        Vm_reference.(order, dirty_pages vm, resident vm, faults vm, data));
  }

(* Run the fibers' scripts on one pool; [forces] are the successive
   delays of the before-page-out hook (the log force), cycled. Returns
   every step's outcome, the pool's observation and the disk's images
   and sequence numbers, in the order the steps ran. Checks the
   write-ahead rule on the way: the hook must be handed the highest LSN
   noted for the page so far unless an update holds the page pinned
   (its page-out then keeps the snapshot taken before the first leg),
   and after every step no sector may carry a sequence number the
   modelled log has not flushed, and every sector stamped s must hold
   the page as it stood when LSN s was noted. *)
let run_pool make ~frames ~forces fibers =
  let e = Engine.create () in
  let disk = Disk.create e in
  Disk.ensure_segment disk 1 ~pages:16;
  let calls = ref 0 in
  let flushed = ref (-1) in
  let pins = Array.make 16 0 and highest = Array.make 16 (-1) in
  let page_of_lsn = Hashtbl.create 16 in
  (* each page's first bytes as the scripts last wrote them, and as they
     stood when each LSN was noted *)
  let written = Array.make 16 (String.make 4 '\000') and image_of_lsn = Hashtbl.create 16 in
  let page_of (o : Object_id.t) = o.offset / Page.size in
  let next_lsn = ref 0 in
  let script =
    {
      pinned = (fun o d -> pins.(page_of o) <- pins.(page_of o) + d);
      wrote = (fun o v -> written.(page_of o) <- v);
      noted =
        (fun o ->
          incr next_lsn;
          let lsn = !next_lsn and page = page_of o in
          highest.(page) <- lsn;
          Hashtbl.replace page_of_lsn lsn page;
          Hashtbl.replace image_of_lsn lsn written.(page);
          lsn);
    }
  in
  let before_page_out ~seqno =
    (* -1 is a never-written sector's number: nothing was noted *)
    if seqno >= 0 then begin
      let page = Hashtbl.find page_of_lsn seqno in
      if pins.(page) = 0 && seqno <> highest.(page) then
        Alcotest.failf "page-out announced LSN %d, not its page's highest" seqno
    end;
    let d = List.nth forces (!calls mod List.length forces) in
    incr calls;
    Engine.delay d;
    flushed := max !flushed seqno
  in
  let pool = make e disk ~frames ~before_page_out ~script in
  let log = ref [] and writes = ref 0 in
  let page n = obj ~segment:1 ~offset:(n * Page.size) ~length:4 in
  let on_disk () =
    List.init 16 (fun page ->
        let pid = { Disk.segment = 1; page } in
        (Disk.read_nocharge disk pid, Disk.seqno disk pid))
  in
  List.iteri
    (fun i (start, script) ->
      ignore
        (Engine.spawn e (fun () ->
             Engine.delay start;
             List.iteri
               (fun step action ->
                 let result =
                   match action with
                   | V_read p -> pool.v_read (page p)
                   | V_update (p, hold) | V_late (p, hold) ->
                       incr writes;
                       let v = Printf.sprintf "%04d" !writes in
                       let late = match action with V_late _ -> true | _ -> false in
                       pool.v_update (page p) v ~logged:true ~hold ~late;
                       v
                   | V_rewrite (p, hold) ->
                       let v = pool.v_read (page p) in
                       pool.v_update (page p) v ~logged:false ~hold ~late:false;
                       v
                   | V_flush p ->
                       pool.v_flush { Disk.segment = 1; page = p };
                       ""
                   | V_pause d ->
                       Engine.delay d;
                       ""
                 in
                 let disk_now = on_disk () in
                 List.iter
                   (fun (image, seqno) ->
                     if seqno > !flushed then
                       Alcotest.failf "sector stamped %d, log flushed to %d"
                         seqno !flushed;
                     let head = String.sub image 0 4 in
                     if seqno >= 0 && head <> Hashtbl.find image_of_lsn seqno then
                       Alcotest.failf "sector stamped %d holds %S, noted as %S"
                         seqno head (Hashtbl.find image_of_lsn seqno))
                   disk_now;
                 log :=
                   (Engine.now e, i, step, result, pool.observe (), disk_now)
                   :: !log)
               script)))
    fibers;
  let _ = Engine.run e in
  List.rev !log

let vm_script_gen =
  QCheck.Gen.(
    let page = int_bound 5 and ms n = map (fun k -> k * 1_000) (int_bound n) in
    let action =
      frequency
        [
          (3, map (fun p -> V_read p) page);
          (3, map2 (fun p h -> V_update (p, h)) page (ms 60));
          (1, map (fun p -> V_flush p) page);
          (1, map (fun d -> V_pause d) (ms 60));
        ]
    in
    pair
      (list_size (int_range 1 4) (ms 120))
      (list_size (int_range 1 3) (pair (ms 60) (list_size (int_range 1 8) action))))

let prop_vm_matches_reference =
  QCheck.Test.make ~name:"LRU victim and dirty set match the folds" ~count:300
    (QCheck.make vm_script_gen) (fun (forces, fibers) ->
      (* one frame more than there are fibers: each pins at most one
         page, so some frame is always evictable *)
      let frames = List.length fibers + 1 in
      run_pool real_pool ~frames ~forces fibers
      = run_pool reference_pool ~frames ~forces fibers)

(* Page-outs racing writes to the same frames: three pages, log forces
   up to 120 ms, and rewrites of the bytes already there. The frames
   share their images with the disk; the reference copies at every
   fault and page-out. *)
let page_race_gen =
  QCheck.Gen.(
    let page = int_bound 2 and ms n = map (fun k -> k * 1_000) (int_bound n) in
    let action =
      frequency
        [
          (2, map (fun p -> V_read p) page);
          (3, map2 (fun p h -> V_update (p, h)) page (ms 60));
          (2, map2 (fun p h -> V_rewrite (p, h)) page (ms 60));
          (2, map2 (fun p h -> V_late (p, h)) page (ms 60));
          (2, map (fun p -> V_flush p) page);
          (1, map (fun d -> V_pause d) (ms 40));
        ]
    in
    pair
      (list_size (int_range 1 4) (ms 120))
      (list_size (int_range 2 4)
         (pair (ms 40) (list_size (int_range 1 10) action))))

let prop_vm_images_match_copying_reference =
  QCheck.Test.make ~name:"shared page images match the copying reference"
    ~count:300 (QCheck.make page_race_gen) (fun (forces, fibers) ->
      let frames = List.length fibers + 1 in
      run_pool real_pool ~frames ~forces fibers
      = run_pool reference_pool ~frames ~forces fibers)

(* A page-out held up by a 100 ms log force; at 50 ms another fiber
   writes the frame. The disk gets the image the page-out announced,
   and the frame stays dirty unless the write left its bytes as they
   were. A write at 1 ms lands during the first protocol leg: if its
   record is noted and the page unpinned by the leg's end, the page-out
   takes the newer image and leaves the frame clean; if the writer
   still holds the page, the disk gets the image from before the
   announcement. *)
let test_vm_write_during_page_out () =
  let run ?(at = 50_000) second =
    let fibers = [ (0, [ V_update (0, 0); V_flush 0 ]); (at, [ second ]) ] in
    let real = run_pool real_pool ~frames:2 ~forces:[ 100_000 ] fibers in
    Alcotest.(check bool) "matches the reference" true
      (real = run_pool reference_pool ~frames:2 ~forces:[ 100_000 ] fibers);
    let _, _, _, _, (_, dirty, _, _, data), disk =
      List.nth real (List.length real - 1)
    in
    let head page = String.sub page 0 4 in
    (head (fst (List.hd disk)), dirty, head (List.hd data))
  in
  let disk, dirty, frame = run (V_update (0, 0)) in
  Alcotest.(check string) "announced image on disk" "0001" disk;
  Alcotest.(check string) "frame has the racing write" "0002" frame;
  Alcotest.(check int) "frame still dirty" 1 (List.length dirty);
  let disk, dirty, frame = run (V_rewrite (0, 0)) in
  Alcotest.(check string) "same bytes on disk" "0001" disk;
  Alcotest.(check string) "and in the frame" "0001" frame;
  Alcotest.(check int) "identical write leaves the frame clean" 0 (List.length dirty);
  let disk, dirty, _ = run ~at:1_000 (V_update (0, 0)) in
  Alcotest.(check string) "logged and unpinned in the first leg" "0002" disk;
  Alcotest.(check int) "rides along, frame clean" 0 (List.length dirty);
  let disk, dirty, frame = run ~at:1_000 (V_late (0, 5_000)) in
  Alcotest.(check string) "still pinned after the first leg" "0001" disk;
  Alcotest.(check string) "the write stays in the frame" "0002" frame;
  Alcotest.(check int) "frame dirty" 1 (List.length dirty)

(* Two fibers evict the same dirty frame at once, the second page-out
   held up by a slow log force; meanwhile a third fiber faults the page
   back in and pins it. The late evictor must leave the new frame be. *)
let test_vm_double_eviction_refault () =
  let forces = [ 0; 100_000 ] in
  let fibers =
    [
      (0, [ V_update (0, 0) ]);
      (40_000, [ V_read 1 ]);
      (41_000, [ V_read 2 ]);
      (90_000, [ V_update (0, 200_000); V_read 0 ]);
    ]
  in
  let real = run_pool real_pool ~frames:1 ~forces fibers in
  Alcotest.(check bool) "matches the reference" true
    (real = run_pool reference_pool ~frames:1 ~forces fibers);
  let _, _, _, result, (lru, _, _, _, _), _ = List.nth real (List.length real - 1) in
  Alcotest.(check string) "re-faulted page kept its update" "0002" result;
  Alcotest.(check bool) "page 0 still resident" true
    (List.mem { Disk.segment = 1; page = 0 } lru)

let suites =
  [
    ( "accent.vm",
      [
        quick "read/write" test_vm_read_write;
        quick "write requires pin" test_vm_write_requires_pin;
        quick "LRU eviction" test_vm_eviction_lru;
        quick "pinned not evicted" test_vm_pinned_not_evicted;
        quick "WAL protocol order" test_vm_wal_protocol_order;
        quick "dirty page list" test_vm_dirty_page_list;
        quick "multi-page object" test_vm_multipage_object;
        quick "single-frame pool" test_vm_single_frame_pool;
        quick "double eviction and re-fault" test_vm_double_eviction_refault;
        quick "flushed image kept" test_vm_flushed_image_kept;
        quick "write during page-out" test_vm_write_during_page_out;
        QCheck_alcotest.to_alcotest prop_vm_matches_reference;
        QCheck_alcotest.to_alcotest prop_vm_images_match_copying_reference;
      ] );
  ]
