(* Tests for pages, the disk model, and stable storage. *)

open Tabs_sim
open Tabs_storage

let quick name f = Alcotest.test_case name `Quick f

let in_fiber f =
  let e = Engine.create () in
  let result = ref None in
  let _ = Engine.spawn e (fun () -> result := Some (f e)) in
  let _ = Engine.run e in
  match !result with Some v -> v | None -> Alcotest.fail "fiber did not finish"

(* A zero page with [s] at offset 0. *)
let page_of s = Page.update Page.zero (fun b -> Page.blit_string s b ~off:0)

let test_page_roundtrip () =
  let p =
    Page.update Page.zero (fun b ->
        Page.blit_string "hello" b ~off:100;
        Bytes.set_int64_le b 8 123456789L)
  in
  Alcotest.(check string) "read back" "hello" (String.sub p 100 5);
  Alcotest.(check int) "int roundtrip" 123456789 (Page.get_int p ~off:8);
  Alcotest.(check bool) "the zero image is untouched" true
    (Page.equal Page.zero (String.make Page.size '\000'))

let test_page_bounds () =
  Alcotest.check_raises "overflow write"
    (Invalid_argument "Page.blit_string: out of page bounds") (fun () ->
      ignore (Page.update Page.zero (fun b -> Page.blit_string "xy" b ~off:511)))

let test_disk_persistence () =
  in_fiber (fun e ->
      let d = Disk.create e in
      Disk.ensure_segment d 1 ~pages:4;
      Disk.write d { segment = 1; page = 2 } (page_of "data") ~seqno:7;
      let back, seqno = Disk.read d { segment = 1; page = 2 } ~access:`Random in
      Alcotest.(check string) "contents" "data" (String.sub back 0 4);
      Alcotest.(check int) "seqno read with the page" 7 seqno;
      Alcotest.(check int) "seqno stored" 7 (Disk.seqno d { segment = 1; page = 2 }))

let test_disk_costs () =
  let e = Engine.create () in
  let _ =
    Engine.spawn e (fun () ->
        let d = Disk.create e in
        Disk.ensure_segment d 1 ~pages:2;
        ignore (Disk.read d { segment = 1; page = 0 } ~access:`Random);
        ignore (Disk.read d { segment = 1; page = 1 } ~access:`Sequential))
  in
  let _ = Engine.run e in
  Alcotest.(check int) "random (32ms) + sequential (16ms)" 48_000 (Engine.now e)

let test_disk_grow_preserves () =
  in_fiber (fun e ->
      let d = Disk.create e in
      Disk.ensure_segment d 9 ~pages:2;
      Disk.write_nocharge d { segment = 9; page = 1 } (page_of "keep") ~seqno:3;
      Disk.ensure_segment d 9 ~pages:10;
      Alcotest.(check int) "grown" 10 (Disk.segment_pages d 9);
      let back = Disk.read_nocharge d { segment = 9; page = 1 } in
      Alcotest.(check string) "data kept" "keep" (String.sub back 0 4))

let test_disk_bounds () =
  in_fiber (fun e ->
      let d = Disk.create e in
      Disk.ensure_segment d 1 ~pages:2;
      Alcotest.check_raises "out of bounds"
        (Invalid_argument "Disk: page out of segment bounds") (fun () ->
          ignore (Disk.read_nocharge d { segment = 1; page = 5 })))

let test_disk_copy_independent () =
  let e = Engine.create () in
  let src = Disk.create e in
  Disk.ensure_segment src 1 ~pages:2;
  let pid = { Disk.segment = 1; page = 0 } in
  Disk.write_nocharge src pid (page_of "v1") ~seqno:1;
  let dst = Disk.copy src ~engine:(Engine.create ()) in
  Disk.write_nocharge src pid (page_of "v2") ~seqno:2;
  Disk.ensure_segment src 1 ~pages:8;
  Disk.write_nocharge dst { pid with page = 1 } (page_of "w1") ~seqno:3;
  let text d pid = String.sub (Disk.read_nocharge d pid) 0 2 in
  Alcotest.(check string) "copy keeps v1" "v1" (text dst pid);
  Alcotest.(check int) "copy keeps its seqno" 1 (Disk.seqno dst pid);
  Alcotest.(check int) "copy keeps its size" 2 (Disk.segment_pages dst 1);
  Alcotest.(check string) "source has v2" "v2" (text src pid);
  Alcotest.(check string) "source page 1 unwritten" "\000\000"
    (text src { pid with page = 1 })

(* Never-written sectors share one zero image: a segment costs a few
   words per sector, not a page each. *)
let test_disk_segment_cost () =
  let d = Disk.create (Engine.create ()) in
  let words () = Obj.reachable_words (Obj.repr d) in
  let before = words () in
  let pages = 100_000 in
  Disk.ensure_segment d 1 ~pages;
  let cost = words () - before in
  if cost > 3 * pages then
    Alcotest.failf "%d words for %d sectors (a page is %d words)" cost pages
      (Page.size * 8 / Sys.word_size)

let test_stable_append_read () =
  let s = Stable.create () in
  let p0 = Stable.append s "alpha" in
  let p1 = Stable.append s "beta" in
  Alcotest.(check int) "positions dense" (p0 + 1) p1;
  Alcotest.(check string) "read back" "alpha" (Stable.read s p0);
  Alcotest.(check int) "bytes" 9 (Stable.total_bytes s)

let test_stable_truncate () =
  let s = Stable.create () in
  let ps = List.init 10 (fun i -> Stable.append s (Printf.sprintf "r%d" i)) in
  Stable.truncate_prefix s ~keep_from:5;
  Alcotest.(check int) "first" 5 (Stable.first s);
  Alcotest.(check string) "live record" "r5" (Stable.read s (List.nth ps 5));
  Alcotest.check_raises "truncated gone" Not_found (fun () ->
      ignore (Stable.read s 4));
  let p = Stable.append s "more" in
  Alcotest.(check int) "positions continue" 10 p

let prop_stable_roundtrip =
  QCheck.Test.make ~name:"stable append/read roundtrip" ~count:100
    QCheck.(list string)
    (fun records ->
      let s = Stable.create () in
      let positions = List.map (Stable.append s) records in
      List.for_all2 (fun p r -> Stable.read s p = r) positions records)

let suites =
  [
    ( "storage.page",
      [ quick "roundtrip" test_page_roundtrip; quick "bounds" test_page_bounds ]
    );
    ( "storage.disk",
      [
        quick "persistence" test_disk_persistence;
        quick "io costs" test_disk_costs;
        quick "grow preserves" test_disk_grow_preserves;
        quick "bounds" test_disk_bounds;
        quick "copy is independent" test_disk_copy_independent;
        quick "segment cost per sector" test_disk_segment_cost;
      ] );
    ( "storage.stable",
      [
        quick "append/read" test_stable_append_read;
        quick "truncate" test_stable_truncate;
        QCheck_alcotest.to_alcotest prop_stable_roundtrip;
      ] );
  ]
