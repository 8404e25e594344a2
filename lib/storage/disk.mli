(** Non-volatile storage: the disk backing recoverable segments.

    Contents survive node crashes (Section 2.1.3's middle storage tier;
    like the paper, we do not model media failure). Each sector carries
    header space for a 39-bit sequence number written atomically with the
    page — the hook required by operation logging (Section 3.2.1).

    Reads and writes charge demand-paging I/O costs to the calling
    fiber and copy nothing: a read returns the sector's immutable image. *)

type segment_id = int

(** Address of one page of one recoverable segment. *)
type page_id = { segment : segment_id; page : int }

type t

(** [create engine] makes an empty disk whose I/O charges costs on
    [engine]. *)
val create : Tabs_sim.Engine.t -> t

(** [ensure_segment t seg ~pages] creates segment [seg] with [pages]
    zeroed pages if absent, all sharing {!Page.zero}; growing an existing
    segment keeps old data. *)
val ensure_segment : t -> segment_id -> pages:int -> unit

(** [segment_pages t seg] is the current size of [seg] in pages, 0 if
    absent. *)
val segment_pages : t -> segment_id -> int

(** [read t pid ~access] reads a page and the sequence number written
    with it (see {!seqno}), charging one
    {!Tabs_sim.Cost_model.Random_paged_io} or [Sequential_read]
    according to [access]. Must run inside a fiber. *)
val read : t -> page_id -> access:[ `Random | `Sequential ] -> Page.t * int

(** [write t pid page ~seqno] writes the page and atomically records
    [seqno] in the sector header, charging one random paged I/O. *)
val write : t -> page_id -> Page.t -> seqno:int -> unit

(** [read_nocharge t pid] peeks without cost — for recovery-time
    inspection where the cost is charged by the caller, and for tests. *)
val read_nocharge : t -> page_id -> Page.t

(** [write_nocharge t pid page ~seqno] writes without cost accounting. *)
val write_nocharge : t -> page_id -> Page.t -> seqno:int -> unit

(** [seqno t pid] is the sequence number last written with the page
    (-1 for never-written pages, so a write covering LSN 0 is
    distinguishable). *)
val seqno : t -> page_id -> int

(** [copy t ~engine] is an independent copy charging its I/O to [engine]
    — a frozen image of the disk at a crash instant, for tests that
    replay recovery against it. It shares the (immutable) page images. *)
val copy : t -> engine:Tabs_sim.Engine.t -> t

(** Number of pages ever written, a convenience for tests. *)
val pages_written : t -> int
