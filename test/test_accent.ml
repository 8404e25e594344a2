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
     first-dirty at modification, then before/after around the write. *)
  in_fiber (fun e ->
      let vm = make_vm ~frames:2 e in
      let events = ref [] in
      Vm.set_wal_hooks vm
        {
          Vm.on_first_dirty = (fun _ -> events := "first-dirty" :: !events);
          before_page_out = (fun _ -> events := "before-out" :: !events);
          after_page_out = (fun _ -> events := "after-out" :: !events);
        };
      let page n = obj ~segment:1 ~offset:(n * Page.size) ~length:4 in
      Vm.pin vm (page 0) ~access:`Random;
      Vm.write vm (page 0) "dirt";
      Vm.note_update vm (page 0) ~lsn:5;
      Vm.unpin vm (page 0);
      (* second write on the same dirty page: no second notice *)
      Vm.pin vm (page 0) ~access:`Random;
      Vm.write vm (page 0) "dirx";
      Vm.unpin vm (page 0);
      (* force eviction of page 0 *)
      ignore (Vm.read vm (page 1) ~access:`Random);
      ignore (Vm.read vm (page 2) ~access:`Random);
      ignore (Vm.read vm (page 3) ~access:`Random);
      Alcotest.(check (list string))
        "protocol order"
        [ "first-dirty"; "before-out"; "after-out" ]
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
        (Page.sub (Disk.read_nocharge (Vm.disk vm) { Disk.segment = 1; page = 0 })
           ~off:0 ~len:4);
      (* and faulting it back reads the written data *)
      Alcotest.(check string) "refault reads it" "aaaa"
        (Vm.read vm (page 0) ~access:`Random))

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
      ] );
  ]
