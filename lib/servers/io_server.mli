(** The input/output server (Section 4.3).

    Extends the transaction domain to the display: output is permanent
    but {e not} failure atomic — every write appears immediately, in a
    style that indicates the state of the transaction that produced it,
    and the screen is restored after a node failure.

    Output display styles (the paper's grays and strike-throughs,
    rendered here as text decorations):
    - {e in progress} — tentative, shown ~like this~ (gray);
    - {e committed} — shown plain (redrawn in black);
    - {e aborted} — shown -like this- (lines drawn through it, rather
      than disappearing, which would be disconcerting).
    Input read by the application is additionally shown [in brackets]
    (the paper's rectangles around read characters).

    The mechanism is the paper's state-object trick: when a client
    transaction first touches an area, the server runs its own
    top-level transaction ([ExecuteTransaction]) writing [aborted] into
    a state object, then has the {e client} transaction lock the state
    object and overwrite it with [committed] — so the log carries an
    aborted/committed old/new pair on the client's behalf, and the
    display code can classify each line with [IsObjectLocked] plus the
    state object's current contents, even after a crash. Output text
    itself is appended under server-owned transactions so it survives
    client aborts. *)

type t

type area = int

(** How a line should be displayed. *)
type style = In_progress | Committed | Aborted

val areas : int  (** number of display areas on the screen *)

val create :
  Tabs_core.Server_lib.env -> name:string -> segment:int -> unit -> t

(** [obtain_io_area t] allocates a free display area. Raises
    [Tabs_core.Errors.Server_error "NoFreeArea"] if all are taken. Must
    run inside a fiber (performs its own transaction). *)
val obtain_io_area : t -> area

(** [destroy_io_area t a] frees the area and clears its contents. *)
val destroy_io_area : t -> area -> unit

(** [writeln_to_area t tid a text] appends one output line on behalf of
    the client transaction [tid]. The text shows immediately (tentative
    style) and is classified by [tid]'s eventual fate. *)
val writeln_to_area : t -> Tabs_wal.Tid.t -> area -> string -> unit

(** [write_to_area t tid a text] appends text to the area's current
    (unterminated) line; the next [writeln_to_area] or input echo
    completes it. *)
val write_to_area : t -> Tabs_wal.Tid.t -> area -> string -> unit

(** [provide_input t a text] — the keyboard: queue a line of user input
    for the area. *)
val provide_input : t -> area -> string -> unit

(** [read_line_from_area t tid a] blocks until input is available,
    echoes it (bracketed) under [tid]'s state object, and returns it. *)
val read_line_from_area : t -> Tabs_wal.Tid.t -> area -> string

(** [read_char_from_area t tid a] consumes a single character of the
    area's input (blocking if none is queued) and echoes it. *)
val read_char_from_area : t -> Tabs_wal.Tid.t -> area -> char

(** [render t] — the current screen: per area, each line with its
    display style, computed from lock state and state-object contents
    exactly as the paper describes. Safe to call after a crash and
    restart (the screen-restoration behaviour). *)
val render : t -> (area * (style * string) list) list

(** [render_text t] — the screen as ASCII art in the spirit of
    Figure 4-1: ~tentative~, plain committed, -struck aborted-,
    [bracketed input]. *)
val render_text : t -> string
