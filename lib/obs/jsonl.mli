(** JSON Lines export of a recorded trace for offline analysis.

    Each line is one object: [{"t": <µs>, "type": "<event>", ...}] with
    the event's fields flattened alongside. *)

val entry_to_json : Recorder.entry -> string

val to_file : string -> Recorder.entry list -> unit
