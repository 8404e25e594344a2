open Tabs_sim
open Tabs_wal

(* Internal session envelope. [incarnation] distinguishes sender
   restarts: receivers key their expected-sequence state by it, so a
   rebooted endpoint starts a fresh at-most-once stream. *)
type Network.payload +=
  | Sess_data of {
      seq : int;
      incarnation : int;
      tid : Tid.t option;
      inner : Network.payload;
    }
  | Sess_ack of { seq : int; incarnation : int }
  | Sess_reset of { incarnation : int }
        (* receiver has no state for this stream and cannot accept a
           mid-stream frame: the sender must renumber and resend *)
  | Coalesced of Network.payload list
        (* one wire datagram carrying several frames (comm batching);
           frames are in send order *)

type Trace.event +=
  | Session_retransmit of {
      node : int;
      peer : int;
      attempt : int;
      window : int; (* unacked frames resent this round (burst-capped) *)
      rto : int; (* backed-off timeout that just expired *)
    }
  | Session_failure of { node : int; peer : int }
  | Comm_batch of {
      node : int;
      peer : int;
      frames : int; (* frames in the departing wire message *)
      control : int; (* datagram-class frames among them *)
      piggybacked_ack : bool; (* a reverse-stream ack rode along *)
    }

(* Comm batching (off by default): outgoing frames to the same peer
   wait up to [flush_delay] for companions (or until [max_frames] /
   [max_bytes]) and travel as one multi-frame datagram; delivery acks
   wait up to [ack_delay] for a reverse-direction frame to ride, and
   otherwise go out as one standalone cumulative ack. *)
type batching = {
  ack_delay : int;
  flush_delay : int;
  max_frames : int;
  max_bytes : int;
}

(* The ack window sits just above the data-server-call time (26.1 ms),
   so the acknowledgement of an RPC request usually rides the reply —
   the classic delayed-ack design point — while staying well under the
   100 ms retransmission timeout. *)
let default_batching =
  { ack_delay = 30_000; flush_delay = 1_000; max_frames = 16; max_bytes = 8_192 }

type out_session = {
  mutable seq : int; (* next sequence number to assign *)
  mutable acked : int; (* all < acked are acknowledged *)
  mutable incarnation : int;
  unsent : (int * Tid.t option * Network.payload) Queue.t;
      (* messages assigned a seq, awaiting ack; head is oldest *)
  mutable timer_running : bool;
  mutable attempts : int;
  mutable cur_rto : int;
      (* current retransmission timeout: base rto, doubled per barren
         retransmission up to rto_max, reset when an ack makes progress *)
}

type in_session = { mutable expected : int; mutable incarnation : int }

(* One open per-peer batch of outgoing frames. [control] frames are
   datagram-class (each would have been a full charged datagram on its
   own); the rest are session-class (their transport is charged by the
   RPC primitive above this layer). *)
type out_batch = {
  mutable frames : (bool * Network.payload) list; (* (control?, frame), newest first *)
  mutable nframes : int;
  mutable bytes : int;
  mutable flush_armed : bool;
}

(* A cumulative ack owed to [peer] for its incoming stream, waiting for
   a ride on an outgoing frame or for the ack window to expire. *)
type pending_ack = {
  mutable upto : int; (* highest delivered seq to acknowledge *)
  mutable pa_incarnation : int;
  mutable covered : int; (* deliveries this ack will cover *)
  mutable live : bool;
  mutable ack_armed : bool;
}

type tree = { mutable parent : int option; mutable children : int list }

type t = {
  net : Network.t;
  node_id : int;
  rto : int;
  rto_max : int;
  retries : int;
  resend_burst : int;
  batching : batching option;
  mutable alive : bool;
  out_sessions : (int, out_session) Hashtbl.t;
  in_sessions : (int, in_session) Hashtbl.t;
  out_batches : (int, out_batch) Hashtbl.t;
  pending_acks : (int, pending_ack) Hashtbl.t;
  trees : (Tid.t, tree) Hashtbl.t; (* keyed by top-level tid *)
  mutable datagram_handlers : (src:int -> Network.payload -> unit) list;
  mutable session_handler : src:int -> Network.payload -> unit;
  mutable broadcast_handler : src:int -> Network.payload -> unit;
  mutable failure_handler : peer:int -> unit;
  mutable remote_involvement : Tid.t -> unit;
  mutable next_incarnation : int;
}

let engine t = Network.engine t.net

(* Transport latency for session and ack frames; subsumed by the
   inter-node RPC primitive charged above this layer. *)
let session_wire_delay = 2_000

let batching t = t.batching

let shutdown t = t.alive <- false

(* Wire accounting ---------------------------------------------------- *)

let global_msgs t = Metrics.msgs (Engine.metrics (engine t))

let count_wire t ~frames =
  let m = global_msgs t in
  m.Metrics.wire_messages <- m.Metrics.wire_messages + 1;
  m.Metrics.carried_frames <- m.Metrics.carried_frames + frames

let count_piggybacked t ~covered =
  let m = global_msgs t in
  m.Metrics.piggybacked_acks <- m.Metrics.piggybacked_acks + 1;
  m.Metrics.ack_deliveries_covered <- m.Metrics.ack_deliveries_covered + covered

let count_delayed_ack t ~covered =
  let m = global_msgs t in
  m.Metrics.delayed_acks <- m.Metrics.delayed_acks + 1;
  m.Metrics.ack_deliveries_covered <- m.Metrics.ack_deliveries_covered + covered

let count_duplicate_reack t =
  let m = global_msgs t in
  m.Metrics.duplicate_reacks <- m.Metrics.duplicate_reacks + 1

(* Commit spanning tree ------------------------------------------------ *)

(* The transaction's tree here, created on first use; the queries
   below only look, so asking about an unknown transaction leaves no
   entry behind. *)
let tree_of t tid =
  let key = Tid.top_level tid in
  match Hashtbl.find_opt t.trees key with
  | Some tree -> tree
  | None ->
      let tree = { parent = None; children = [] } in
      Hashtbl.add t.trees key tree;
      tree

let find_tree t tid = Hashtbl.find_opt t.trees (Tid.top_level tid)

let parent_of t tid = Option.bind (find_tree t tid) (fun tree -> tree.parent)

let children_of t tid =
  match find_tree t tid with Some tree -> List.rev tree.children | None -> []

let spread tree = tree.parent <> None || tree.children <> []

let involved_remotely t tid =
  Option.fold ~none:false ~some:spread (find_tree t tid)

let forget_txn t tid = Hashtbl.remove t.trees (Tid.top_level tid)

let note_outgoing t tid dest =
  match tid with
  | None -> ()
  | Some tid ->
      let tree = tree_of t tid in
      let fresh = not (spread tree) in
      (* A reply to the node that first sent us the transaction must not
         turn our parent into a child. *)
      if
        dest <> t.node_id
        && tree.parent <> Some dest
        && not (List.mem dest tree.children)
      then tree.children <- dest :: tree.children;
      if fresh && spread tree then t.remote_involvement tid

let note_incoming t tid src =
  match tid with
  | None -> ()
  | Some tid ->
      let tree = tree_of t tid in
      let fresh = not (spread tree) in
      (* The tid names the node that began the transaction: that node is
         the root and takes no parent, even when the transaction comes
         back to it (as after a restart, before it has sent anything).
         A reply from a child must not become our parent either. *)
      if
        tree.parent = None && tid.Tid.node <> t.node_id && src <> t.node_id
        && not (List.mem src tree.children)
      then tree.parent <- Some src;
      if fresh then t.remote_involvement tid

(* Sessions ---------------------------------------------------------- *)

(* Incarnation identifiers must grow across Communication Manager
   restarts so receivers can ignore stale frames: fold the virtual time
   of allocation into the value. *)
let fresh_incarnation t =
  t.next_incarnation <- t.next_incarnation + 1;
  (t.node_id * 1_000_000_000_000)
  + (Engine.now (engine t) * 100)
  + (t.next_incarnation mod 100)

let out_session t peer =
  match Hashtbl.find_opt t.out_sessions peer with
  | Some s -> s
  | None ->
      let s =
        {
          seq = 0;
          acked = 0;
          incarnation = fresh_incarnation t;
          unsent = Queue.create ();
          timer_running = false;
          attempts = 0;
          cur_rto = t.rto;
        }
      in
      Hashtbl.add t.out_sessions peer s;
      s

let transmit_frame t ~dest frame =
  count_wire t ~frames:1;
  Network.transmit t.net ~src:t.node_id ~dest ~channel:Network.Session
    ~delay:session_wire_delay frame

(* Datagram coalescing ------------------------------------------------- *)

let datagram_delay t =
  Cost_model.cost (Engine.cost_model (engine t)) Cost_model.Datagram

let coalesced_frame_delay t =
  Cost_model.cost (Engine.cost_model (engine t)) Cost_model.Coalesced_frame

(* Nominal frame sizes for the byte cap: session data frames carry RPC
   requests/replies, control frames and acks are small fixed records. *)
let frame_bytes = function
  | Sess_data _ -> 512
  | Sess_ack _ | Sess_reset _ -> 32
  | _ -> 96

let out_batch_of t peer =
  match Hashtbl.find_opt t.out_batches peer with
  | Some b -> b
  | None ->
      let b = { frames = []; nframes = 0; bytes = 0; flush_armed = false } in
      Hashtbl.add t.out_batches peer b;
      b

(* Flush one peer's batch: attach the pending reverse-stream ack (the
   piggyback), charge the datagram cost model, and put one wire message
   on the network. The charge runs in its own fiber — the Communication
   Manager's processing, off the enqueuer's critical path. A lone
   datagram-class frame still pays the full Datagram primitive (same as
   unbatched); extra datagram-class frames pay only the marginal
   Coalesced_frame increment, and they ride entirely on the increment
   when a session frame (already charged at the RPC layer) carries the
   wire message. *)
let flush_batch t ~dest =
  match Hashtbl.find_opt t.out_batches dest with
  | None -> ()
  | Some b when b.nframes = 0 -> ()
  | Some b ->
      let frames = List.rev b.frames in
      b.frames <- [];
      b.nframes <- 0;
      b.bytes <- 0;
      let frames, piggybacked =
        match Hashtbl.find_opt t.pending_acks dest with
        | Some pa when pa.live ->
            pa.live <- false;
            let covered = pa.covered in
            pa.covered <- 0;
            count_piggybacked t ~covered;
            ( frames
              @ [ (false, Sess_ack { seq = pa.upto; incarnation = pa.pa_incarnation }) ],
              true )
        | _ -> (frames, false)
      in
      let n = List.length frames in
      let control = List.length (List.filter fst frames) in
      ignore
        (Engine.spawn (engine t) ~node:t.node_id (fun () ->
             count_wire t ~frames:n;
             if Engine.tracing (engine t) then
               Engine.emit (engine t)
                 (Comm_batch
                    {
                      node = t.node_id;
                      peer = dest;
                      frames = n;
                      control;
                      piggybacked_ack = piggybacked;
                    });
             (match frames with
             | [ (true, frame) ] ->
                 (* lone datagram: same charge-then-deliver timing as the
                    unbatched path *)
                 Engine.charge (engine t) Cost_model.Datagram;
                 Engine.note_cpu (engine t) ~process:"cm" (datagram_delay t);
                 Network.transmit t.net ~src:t.node_id ~dest
                   ~channel:Network.Datagram ~delay:0 frame
             | [ (false, frame) ] ->
                 Network.transmit t.net ~src:t.node_id ~dest
                   ~channel:Network.Session ~delay:session_wire_delay frame
             | _ ->
                 (* multi-frame: put the wire message on the network at
                    session timing, then account the Communication
                    Manager's protocol work — it overlaps delivery
                    rather than delaying the whole batch by the sum of
                    per-frame costs *)
                 Network.transmit t.net ~src:t.node_id ~dest
                   ~channel:Network.Session ~delay:session_wire_delay
                   (Coalesced (List.map snd frames)));
             if control > 0 then begin
               let riders_only = n > control in
               let extras = if riders_only then control else control - 1 in
               if not riders_only && n > 1 then begin
                 Engine.charge (engine t) Cost_model.Datagram;
                 Engine.note_cpu (engine t) ~process:"cm" (datagram_delay t)
               end;
               for _ = 1 to extras do
                 Engine.charge (engine t) Cost_model.Coalesced_frame;
                 Engine.note_cpu (engine t) ~process:"cm" (coalesced_frame_delay t)
               done
             end))

let enqueue t ~dest ~control frame (b : batching) =
  let ob = out_batch_of t dest in
  ob.frames <- (control, frame) :: ob.frames;
  ob.nframes <- ob.nframes + 1;
  ob.bytes <- ob.bytes + frame_bytes frame;
  if ob.nframes >= b.max_frames || ob.bytes >= b.max_bytes then
    flush_batch t ~dest
  else if not ob.flush_armed then begin
    ob.flush_armed <- true;
    Engine.at (engine t) ~delay:b.flush_delay (fun () ->
        ob.flush_armed <- false;
        if t.alive then flush_batch t ~dest)
  end

(* Delayed / piggybacked acks ------------------------------------------ *)

let pending_ack_of t peer =
  match Hashtbl.find_opt t.pending_acks peer with
  | Some pa -> pa
  | None ->
      let pa =
        { upto = -1; pa_incarnation = 0; covered = 0; live = false; ack_armed = false }
      in
      Hashtbl.add t.pending_acks peer pa;
      pa

(* The ack window expired with no outgoing frame to ride: send one
   standalone cumulative ack covering every delivery since the window
   opened. It goes through the batch so it can still share a wire
   message with anything enqueued at the same instant. *)
let ack_window_expired t ~peer (b : batching) =
  match Hashtbl.find_opt t.pending_acks peer with
  | None -> ()
  | Some pa ->
      pa.ack_armed <- false;
      if t.alive && pa.live then begin
        pa.live <- false;
        let covered = pa.covered in
        pa.covered <- 0;
        count_delayed_ack t ~covered;
        enqueue t ~dest:peer ~control:false
          (Sess_ack { seq = pa.upto; incarnation = pa.pa_incarnation })
          b
      end

let note_ack_due t ~src ~seq ~incarnation (b : batching) =
  let pa = pending_ack_of t src in
  if pa.live && pa.pa_incarnation = incarnation then begin
    if seq > pa.upto then pa.upto <- seq
  end
  else begin
    pa.upto <- seq;
    pa.pa_incarnation <- incarnation
  end;
  pa.live <- true;
  pa.covered <- pa.covered + 1;
  if not pa.ack_armed then begin
    pa.ack_armed <- true;
    Engine.at (engine t) ~delay:b.ack_delay (fun () ->
        ack_window_expired t ~peer:src b)
  end

(* Retransmission ----------------------------------------------------- *)

(* Resend up to [limit] frames from the head of the unacked window
   (delivery is in order, so the head is what the receiver is waiting
   for); returns how many were resent. *)
let send_window ?limit t ~dest (s : out_session) =
  let cap = match limit with None -> max_int | Some l -> l in
  let sent = ref 0 in
  (try
     Queue.iter
       (fun (seq, tid, inner) ->
         if !sent >= cap then raise Exit;
         incr sent;
         transmit_frame t ~dest
           (Sess_data { seq; incarnation = s.incarnation; tid; inner }))
       s.unsent
   with Exit -> ());
  !sent

let rec arm_timer t ~dest (s : out_session) =
  if not s.timer_running then begin
    s.timer_running <- true;
    Engine.at (engine t) ~delay:s.cur_rto (fun () -> on_timer t ~dest s)
  end

and on_timer t ~dest s =
  s.timer_running <- false;
  if t.alive && not (Queue.is_empty s.unsent) then begin
    s.attempts <- s.attempts + 1;
    if s.attempts > t.retries then begin
      (* Permanent communication failure: drop the stream, start a new
         incarnation for any later traffic, and report the peer. *)
      Queue.clear s.unsent;
      s.attempts <- 0;
      s.cur_rto <- t.rto;
      s.incarnation <- fresh_incarnation t;
      s.seq <- 0;
      s.acked <- 0;
      if Engine.tracing (engine t) then
        Engine.emit (engine t)
          (Session_failure { node = t.node_id; peer = dest });
      let handler = t.failure_handler in
      ignore (Engine.spawn (engine t) ~node:t.node_id (fun () -> handler ~peer:dest))
    end
    else begin
      (* Bounded resend burst: a long window under sustained loss must
         not flood O(window) frames onto the wire every timeout. In-order
         delivery means only the head frames can make progress anyway;
         later frames go out again on subsequent (ack-reset) rounds. *)
      let resent = send_window ~limit:t.resend_burst t ~dest s in
      if Engine.tracing (engine t) then
        Engine.emit (engine t)
          (Session_retransmit
             {
               node = t.node_id;
               peer = dest;
               attempt = s.attempts;
               window = resent;
               rto = s.cur_rto;
             });
      (* Exponential backoff: under sustained loss or a dead peer, each
         barren round doubles the wait instead of flooding the wire at a
         fixed cadence. An ack that makes progress resets the timeout. *)
      s.cur_rto <- min (2 * s.cur_rto) t.rto_max;
      arm_timer t ~dest s
    end
  end

let session_send t ~dest ?tid payload =
  note_outgoing t tid dest;
  let s = out_session t dest in
  let seq = s.seq in
  s.seq <- seq + 1;
  Queue.add (seq, tid, payload) s.unsent;
  let frame = Sess_data { seq; incarnation = s.incarnation; tid; inner = payload } in
  (match t.batching with
  | None -> transmit_frame t ~dest frame
  | Some b -> enqueue t ~dest ~control:false frame b);
  arm_timer t ~dest s

(* The receiver lost its state (restart): renumber every unacked
   message into a fresh stream and resend. Messages that were already
   acknowledged were delivered to the receiver's previous incarnation
   and are not replayed. *)
let handle_reset t ~src ~incarnation =
  match Hashtbl.find_opt t.out_sessions src with
  | Some s when incarnation = s.incarnation ->
      s.incarnation <- fresh_incarnation t;
      s.acked <- 0;
      let pending = Queue.create () in
      let n = ref 0 in
      Queue.iter
        (fun (_, tid, inner) ->
          Queue.add (!n, tid, inner) pending;
          incr n)
        s.unsent;
      Queue.clear s.unsent;
      Queue.transfer pending s.unsent;
      s.seq <- !n;
      s.attempts <- 0;
      s.cur_rto <- t.rto;
      ignore (send_window t ~dest:src s);
      arm_timer t ~dest:src s
  | Some _ | None -> ()

let handle_ack t ~src ~seq ~incarnation =
  match Hashtbl.find_opt t.out_sessions src with
  | None -> ()
  | Some s ->
      if incarnation = s.incarnation && seq >= s.acked then begin
        s.acked <- seq + 1;
        s.attempts <- 0;
        s.cur_rto <- t.rto;
        while
          (not (Queue.is_empty s.unsent))
          && (let q, _, _ = Queue.peek s.unsent in
              q <= seq)
        do
          ignore (Queue.pop s.unsent)
        done
      end

let send_ack_now t ~dest ~seq ~incarnation =
  transmit_frame t ~dest (Sess_ack { seq; incarnation })

let handle_session_data t ~src ~seq ~incarnation ~tid ~inner =
  match Hashtbl.find_opt t.in_sessions src with
  | None when seq > 0 ->
      (* We have no state for this stream (we probably restarted) and
         this frame is not its beginning: earlier frames were delivered
         to our previous incarnation. Ask the sender to renumber. *)
      transmit_frame t ~dest:src (Sess_reset { incarnation })
  | state ->
  let s =
    match state with
    | Some s -> s
    | None ->
        let s = { expected = 0; incarnation } in
        Hashtbl.add t.in_sessions src s;
        s
  in
  if incarnation < s.incarnation then
    (* stale frame from a superseded stream *)
    ()
  else begin
  if incarnation > s.incarnation then begin
    (* The peer restarted (or declared us failed): fresh stream. *)
    s.incarnation <- incarnation;
    s.expected <- 0
  end;
  if seq < s.expected then begin
    (* Duplicate of a delivered message: re-ack, do not deliver. With
       batching on the re-ack joins the delayed-ack path so it can
       piggyback instead of spending a wire message of its own. *)
    count_duplicate_reack t;
    match t.batching with
    | None -> send_ack_now t ~dest:src ~seq:(s.expected - 1) ~incarnation
    | Some b -> note_ack_due t ~src ~seq:(s.expected - 1) ~incarnation b
  end
  else if seq = s.expected then begin
    s.expected <- seq + 1;
    (match t.batching with
    | None -> send_ack_now t ~dest:src ~seq ~incarnation
    | Some b -> note_ack_due t ~src ~seq ~incarnation b);
    note_incoming t tid src;
    t.session_handler ~src inner
  end
  (* seq > expected: an earlier frame was lost; the retransmission of the
     full window will re-deliver in order, so drop this one. *)
  end

(* Datagrams --------------------------------------------------------- *)

(* The datagram primitive's cost covers protocol work and the wire: the
   sending fiber is delayed by it, and delivery coincides with the
   sender resuming. With batching on, the frame instead joins the
   peer's batch: the flush fiber pays the (coalesced) cost, off this
   caller's critical path. *)
let send_datagram t ~dest payload =
  match t.batching with
  | Some b -> enqueue t ~dest ~control:true payload b
  | None ->
      Engine.charge (engine t) Cost_model.Datagram;
      Engine.note_cpu (engine t) ~process:"cm" (datagram_delay t);
      count_wire t ~frames:1;
      Network.transmit t.net ~src:t.node_id ~dest ~channel:Network.Datagram
        ~delay:0 payload

let send_datagrams_parallel t ~dests payload =
  match t.batching with
  | Some b -> List.iter (fun dest -> enqueue t ~dest ~control:true payload b) dests
  | None -> (
      match dests with
      | [] -> ()
      | first :: rest ->
          send_datagram t ~dest:first payload;
          List.iter
            (fun dest ->
              (* overlapped sends cost the paper's half-datagram increment *)
              Engine.charge_fraction (engine t) Cost_model.Datagram ~num:1 ~den:2;
              Engine.note_cpu (engine t) ~process:"cm" (datagram_delay t / 2);
              count_wire t ~frames:1;
              Network.transmit t.net ~src:t.node_id ~dest
                ~channel:Network.Datagram ~delay:0 payload)
            rest)

(* Broadcast --------------------------------------------------------- *)

let broadcast t payload =
  Engine.charge (engine t) Cost_model.Datagram;
  List.iter
    (fun dest ->
      if dest <> t.node_id then begin
        count_wire t ~frames:1;
        Network.transmit t.net ~src:t.node_id ~dest ~channel:Network.Broadcast
          ~delay:(datagram_delay t) payload
      end)
    (Network.nodes t.net)

(* Receive dispatch --------------------------------------------------- *)

let handle_session_payload t ~src payload =
  match payload with
  | Sess_data { seq; incarnation; tid; inner } ->
      handle_session_data t ~src ~seq ~incarnation ~tid ~inner
  | Sess_ack { seq; incarnation } -> handle_ack t ~src ~seq ~incarnation
  | Sess_reset { incarnation } -> handle_reset t ~src ~incarnation
  | _ -> ()

let dispatch_frame t ~src frame =
  match frame with
  | Sess_data _ | Sess_ack _ | Sess_reset _ -> handle_session_payload t ~src frame
  | _ -> List.iter (fun handler -> handler ~src frame) t.datagram_handlers

(* Unpack a coalesced wire message: every frame gets its own fiber,
   mirroring the one-fiber-per-transmission semantics of the unbatched
   paths (a handler that blocks — a prepare gathering votes, an RPC
   dispatch waiting on a lock — must not stall the frames behind it).
   FIFO scheduling of same-instant fibers preserves session frame
   order. *)
let unpack t ~src frames =
  List.iter
    (fun frame ->
      ignore
        (Engine.spawn (engine t) ~node:t.node_id (fun () ->
             dispatch_frame t ~src frame)))
    frames

let dispatch_wire t ~src payload =
  match payload with
  | Coalesced frames -> unpack t ~src frames
  | _ -> handle_session_payload t ~src payload

(* Wiring ------------------------------------------------------------ *)

let add_datagram_handler t f = t.datagram_handlers <- t.datagram_handlers @ [ f ]

let set_session_handler t f = t.session_handler <- f

let set_broadcast_handler t f = t.broadcast_handler <- f

let set_failure_handler t f = t.failure_handler <- f

let set_remote_involvement_handler t f = t.remote_involvement <- f

let create net ~node ?(session_rto = 100_000) ?(session_retries = 8)
    ?(session_resend_burst = 8) ?batching () =
  let t =
    {
      net;
      node_id = node;
      rto = session_rto;
      rto_max = 8 * session_rto;
      retries = session_retries;
      resend_burst = max 1 session_resend_burst;
      batching;
      alive = true;
      out_sessions = Hashtbl.create 8;
      in_sessions = Hashtbl.create 8;
      out_batches = Hashtbl.create 8;
      pending_acks = Hashtbl.create 8;
      trees = Hashtbl.create 32;
      datagram_handlers = [];
      session_handler = (fun ~src:_ _ -> ());
      broadcast_handler = (fun ~src:_ _ -> ());
      failure_handler = (fun ~peer:_ -> ());
      remote_involvement = (fun _ -> ());
      next_incarnation = 0;
    }
  in
  Network.register net ~node ~channel:Network.Datagram (fun ~src payload ->
      if t.alive then
        match payload with
        | Coalesced frames -> unpack t ~src frames
        | _ ->
            List.iter (fun handler -> handler ~src payload) t.datagram_handlers);
  Network.register net ~node ~channel:Network.Broadcast (fun ~src payload ->
      if t.alive then t.broadcast_handler ~src payload);
  Network.register net ~node ~channel:Network.Session (fun ~src payload ->
      if t.alive then dispatch_wire t ~src payload);
  t
