(* Structured tracing hook for the simulation engine.

   The event type is extensible so that each layer (lock manager, WAL,
   transaction manager, ...) declares its own constructors without this
   module — or the engine — depending on any of them; the same idiom the
   network uses for [Network.payload]. Consumers that want to decode
   events (lib/obs) sit at the top of the dependency stack and match on
   every layer's constructors, with a catch-all for the rest. *)

type abort_reason =
  | Lock_timeout (* a lock wait expired (deadlock resolution by timeout) *)
  | Explicit (* application called abort, or a server raised *)
  | Comm_failure (* a 2PC participant never answered (vote timeout) *)
  | Vote_no (* a participant voted No / failed local prepare *)
  | Remote_verdict (* subordinate applying a coordinator's abort *)
  | Crash (* recovery rolled back a loser after a node crash *)

let reason_name = function
  | Lock_timeout -> "lock_timeout"
  | Explicit -> "explicit"
  | Comm_failure -> "comm_failure"
  | Vote_no -> "vote_no"
  | Remote_verdict -> "remote_verdict"
  | Crash -> "crash"

type event = ..

(* A free-form annotation any layer (or a test) can emit. *)
type event += Note of string

type sink = time:int -> event -> unit
