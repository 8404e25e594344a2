open Tabs_sim

type entry = { time : int; event : Trace.event }

type t = {
  engine : Engine.t;
  mutable rev_entries : entry list;
  mutable count : int;
}

let attach engine =
  let t = { engine; rev_entries = []; count = 0 } in
  Engine.set_tracer engine
    (Some
       (fun ~time event ->
         t.rev_entries <- { time; event } :: t.rev_entries;
         t.count <- t.count + 1));
  t

let detach t = Engine.set_tracer t.engine None

let entries t = List.rev t.rev_entries

let length t = t.count
