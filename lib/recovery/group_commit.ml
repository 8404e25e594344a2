open Tabs_sim
open Tabs_wal

type config = unit

let default = ()

let window = 5_000

let max_batch = 64

type Trace.event +=
  | Group_commit of {
      node : int;
      batch : int;
      upto : Record.lsn;
      woken : int;
    }

(* One open batch: the force requests that arrived since the daemon last
   went to the log. Requests only ever join the current batch; a batch
   whose force is in flight is already detached from [current]. *)
type batch = {
  mutable high : Record.lsn; (* highest LSN any member needs stable *)
  mutable count : int; (* force requests coalesced so far *)
  done_q : unit Engine.Waitq.t; (* members sleep here until the force lands *)
}

type t = {
  engine : Engine.t;
  node : int;
  log : Log_manager.t;
  wake_q : unit Engine.Waitq.t; (* daemon sleeps here while no batch is open *)
  close_q : unit Engine.Waitq.t; (* early wake when a batch fills to the cap *)
  mutable current : batch option;
  mutable batches : int;
  mutable coalesced : int;
}

(* The daemon: wait for a batch to open, give it [window] microseconds
   of virtual time to fill (or less, if it hits [max_batch]), then issue
   one force through the batch's high-water LSN and wake every member.
   Requests arriving while the force is in flight open the next batch;
   the daemon finds it without sleeping when it loops around. *)
let rec daemon t =
  (match t.current with
  | Some _ -> ()
  | None -> Engine.Waitq.wait t.wake_q);
  (match t.current with
  | None -> () (* woken for a batch that got no members; just loop *)
  | Some b ->
      if b.count < max_batch then
        ignore
          (Engine.Waitq.wait_timeout t.close_q ~engine:t.engine
             ~timeout:window);
      t.current <- None;
      Log_manager.force t.log ~upto:b.high;
      let woken = Engine.Waitq.signal_all b.done_q ~engine:t.engine () in
      t.batches <- t.batches + 1;
      t.coalesced <- t.coalesced + b.count;
      if Engine.tracing t.engine then
        Engine.emit t.engine
          (Group_commit { node = t.node; batch = b.count; upto = b.high; woken }));
  daemon t

let create engine ~node ~log =
  let t =
    {
      engine;
      node;
      log;
      wake_q = Engine.Waitq.create ();
      close_q = Engine.Waitq.create ();
      current = None;
      batches = 0;
      coalesced = 0;
    }
  in
  ignore (Engine.spawn engine ~node (fun () -> daemon t));
  t

let force_through t ~upto =
  if upto >= Log_manager.flushed_lsn t.log then begin
    let b =
      match t.current with
      | Some b -> b
      | None ->
          let b =
            { high = upto; count = 0; done_q = Engine.Waitq.create () }
          in
          t.current <- Some b;
          ignore (Engine.Waitq.signal t.wake_q ~engine:t.engine ());
          b
    in
    if upto > b.high then b.high <- upto;
    b.count <- b.count + 1;
    if b.count >= max_batch then
      ignore (Engine.Waitq.signal t.close_q ~engine:t.engine ());
    Engine.Waitq.wait b.done_q
  end

let batches t = t.batches

let coalesced t = t.coalesced
