type primitive =
  | Data_server_call
  | Inter_node_data_server_call
  | Datagram
  | Small_contiguous_message
  | Large_contiguous_message
  | Pointer_message
  | Random_paged_io
  | Sequential_read
  | Stable_storage_write
  | Coalesced_frame

let all =
  [
    Data_server_call;
    Inter_node_data_server_call;
    Datagram;
    Small_contiguous_message;
    Large_contiguous_message;
    Pointer_message;
    Random_paged_io;
    Sequential_read;
    Stable_storage_write;
    Coalesced_frame;
  ]

let to_int = function
  | Data_server_call -> 0
  | Inter_node_data_server_call -> 1
  | Datagram -> 2
  | Small_contiguous_message -> 3
  | Large_contiguous_message -> 4
  | Pointer_message -> 5
  | Random_paged_io -> 6
  | Sequential_read -> 7
  | Stable_storage_write -> 8
  | Coalesced_frame -> 9

let count = 10

let name = function
  | Data_server_call -> "Data Server Call"
  | Inter_node_data_server_call -> "Inter-Node Data Server Call"
  | Datagram -> "Datagram"
  | Small_contiguous_message -> "Small Contiguous Message"
  | Large_contiguous_message -> "Large Contiguous Message"
  | Pointer_message -> "Pointer Message"
  | Random_paged_io -> "Random Access Paged I/O"
  | Sequential_read -> "Sequential Read"
  | Stable_storage_write -> "Stable Storage Write"
  | Coalesced_frame -> "Coalesced Extra Frame"

type t = int array

let cost t p = t.(to_int p)

let make assoc =
  let t = Array.make count 0 in
  List.iter (fun (p, c) -> t.(to_int p) <- c) assoc;
  t

(* Table 5-1, milliseconds -> microseconds. [Coalesced_frame] is our
   extension, not a paper row: the marginal Communication Manager cost
   of one additional frame riding an already-charged datagram. The
   paper's 11.6 ms/datagram CM cost is mostly per-message protocol
   work, so the marginal frame is priced like copying one more small
   message, well under a tenth of the full datagram. *)
let measured =
  make
    [
      (Data_server_call, 26_100);
      (Inter_node_data_server_call, 89_000);
      (Datagram, 25_000);
      (Small_contiguous_message, 3_000);
      (Large_contiguous_message, 4_400);
      (Pointer_message, 18_300);
      (Random_paged_io, 32_000);
      (Sequential_read, 16_000);
      (Stable_storage_write, 79_000);
      (Coalesced_frame, 2_000);
    ]

(* Table 5-5. *)
let achievable =
  make
    [
      (Data_server_call, 2_500);
      (Inter_node_data_server_call, 9_000);
      (Datagram, 2_000);
      (Small_contiguous_message, 1_000);
      (Large_contiguous_message, 1_250);
      (Pointer_message, 15_000);
      (Random_paged_io, 32_000);
      (Sequential_read, 10_000);
      (Stable_storage_write, 32_000);
      (Coalesced_frame, 400);
    ]

let to_alist t = List.map (fun p -> (p, cost t p)) all
