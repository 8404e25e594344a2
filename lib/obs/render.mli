(** Human-readable trace rendering for [tabs_demo --trace]. *)

val dump : out_channel -> Recorder.entry list -> unit

(** Aggregate span statistics: counts, commit-latency percentiles, and
    the abort-reason breakdown. *)
val span_summary : out_channel -> Span.t list -> unit
