(** Structured tracing: typed events stamped with virtual time.

    Layers declare their own constructors by extending {!event}; the
    engine only forwards events to the installed {!sink} (see
    {!Engine.set_tracer}). Tracing is strictly observational — emitting
    an event never charges metrics, delays a fiber, or advances the
    clock — and costs nothing when no sink is installed, provided
    emission sites guard event construction with {!Engine.tracing}. *)

(** Why a (top-level) transaction aborted. *)
type abort_reason =
  | Lock_timeout  (** a lock wait expired (deadlock resolution by timeout) *)
  | Explicit  (** application called abort, or a server raised *)
  | Comm_failure  (** a 2PC participant never answered (vote timeout) *)
  | Vote_no  (** a participant voted No / failed local prepare *)
  | Remote_verdict  (** subordinate applying a coordinator's abort *)
  | Crash  (** recovery rolled back a loser after a node crash *)

val reason_name : abort_reason -> string

type event = ..

type event += Note of string

type sink = time:int -> event -> unit
