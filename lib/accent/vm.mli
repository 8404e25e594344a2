(** Virtual memory management for recoverable objects.

    Recoverable segments are disk files mapped into virtual memory
    (Section 3.2.1); the kernel pages them on demand and cooperates with
    the Recovery Manager through a three-message protocol before copying
    a modified page back to its segment:

    + the first modification of a clean page is announced;
    + the page is not written until the Recovery Manager confirms that
      every log record applying to it is on non-volatile storage;
    + completion is announced, together with the atomically written
      39-bit sector sequence number needed by operation logging.

    Here the protocol is a set of hooks the Recovery Manager registers;
    the kernel owns the cost of the protocol's messages. On a
    {!Tabs_sim.Profile.Classic} node each leg is an Accent small
    message; on a {!Tabs_sim.Profile.Integrated} node (the Section 5.3
    merged architecture) the Recovery Manager shares the kernel's
    process, every leg is a direct procedure call, and the would-be
    messages are counted as elided ({!Tabs_sim.Engine.elide}).

    The page pool is volatile: discard the [t] and re-attach after a
    crash. *)

type t

(** Trace event: one completed page-out WAL round — the three protocol
    legs, the log force inside [before_page_out], and the disk write.
    [elapsed] is the round's total virtual time on the evicting fiber. *)
type Tabs_sim.Trace.event +=
  | Page_out of { segment : int; page : int; seqno : int; elapsed : int }

(** The Recovery Manager's side of the paging protocol. The hooks carry
    no message cost themselves — the kernel charges (or elides) the
    protocol messages around them according to its profile. *)
type wal_hooks = {
  on_first_dirty : Tabs_storage.Disk.page_id -> unit;
  before_page_out : seqno:int -> unit;
      (** must force the log through record [seqno] before returning:
          [seqno] is the highest LSN noted for the page, the sector
          sequence number the kernel is about to stamp (below the log's
          flushed LSN when every such record is already stable). Runs
          in the faulting fiber. *)
}

(** [attach engine disk ~frames ?profile ()] maps the node's disk with a
    pool of [frames] page frames (the Perq's limited physical memory —
    the 5000-page benchmark array is more than three times this), under
    the given architecture profile (default [Classic]). *)
val attach :
  Tabs_sim.Engine.t ->
  Tabs_storage.Disk.t ->
  frames:int ->
  ?profile:Tabs_sim.Profile.t ->
  unit ->
  t

val set_wal_hooks : t -> wal_hooks -> unit

(** [set_on_fault t (Some f)] installs a gate consulted on {e every}
    page access through the demand-paging path — faults and hits alike —
    before the frame is returned. Instant restart parks per-page redo
    chains and uses this gate to replay a page's chain behind the page
    latch on first touch; the replay itself re-enters the paging path,
    so the gate must be re-entrant (the Recovery Manager's gate keys on
    the owning fiber). [None] (the default) costs one match. *)
val set_on_fault : t -> (Tabs_storage.Disk.page_id -> unit) option -> unit

val disk : t -> Tabs_storage.Disk.t

(** [read t obj ~access] reads the object's bytes, demand-paging with
    [access]-pattern cost. Must run inside a fiber. *)
val read : t -> Tabs_wal.Object_id.t -> access:[ `Random | `Sequential ] -> string

(** [write t obj value] overwrites the object's byte range in memory.
    Every touched page must be pinned — the server library pins around
    modifications precisely so that no page-out can slip between an
    update and its log record. Raises [Invalid_argument] if the length
    differs from the object's or a page is unpinned. *)
val write : t -> Tabs_wal.Object_id.t -> string -> unit

(** [pin t obj ~access] faults the object in and pins its pages. *)
val pin : t -> Tabs_wal.Object_id.t -> access:[ `Random | `Sequential ] -> unit

val unpin : t -> Tabs_wal.Object_id.t -> unit

(** [unpin_all t] releases every pin (server library [UnPinAllObjects]). *)
val unpin_all : t -> unit

(** [note_update t obj ~lsn] records that log record [lsn] covers the
    object's pages: maintains each frame's recovery LSN (earliest update
    not on disk) and the sequence number to stamp at page-out. *)
val note_update : t -> Tabs_wal.Object_id.t -> lsn:int -> unit

(** [note_pages t pages ~lsn] is {!note_update} for an explicit page
    list (operation-logging records carry pages, not byte ranges);
    non-resident pages are ignored. *)
val note_pages : t -> Tabs_storage.Disk.page_id list -> lsn:int -> unit

(** [note_rec_lsn t pid ~lsn] lowers the page's recovery LSN to at most
    [lsn] without touching the sequence number to stamp at page-out.
    The Recovery Manager calls it from the [on_first_dirty] hook with
    the next LSN to be issued: the update that just dirtied the page has
    not reached the log yet, and a fuzzy checkpoint taken in that window
    must still report a recovery LSN that covers it. Ignores non-resident
    pages. *)
val note_rec_lsn : t -> Tabs_storage.Disk.page_id -> lsn:int -> unit

(** [dirty_pages t] lists dirty frames with their recovery LSNs — the
    checkpoint record's page list. *)
val dirty_pages : t -> (Tabs_storage.Disk.page_id * int) list

(** [flush_page t pid] runs the page-out protocol for one dirty page
    (used by log reclamation, which "may force pages back to disk before
    they would otherwise be written"). No-op on clean or absent pages. *)
val flush_page : t -> Tabs_storage.Disk.page_id -> unit

(** [flush_all t] pages out every dirty frame. *)
val flush_all : t -> unit

(** [resident t] is the number of frames in use; [pinned t] the number
    currently pinned (checkpoints require data servers not to wait while
    objects are pinned, so this should be 0 at checkpoint time). *)
val resident : t -> int

val pinned : t -> int

(** [lru t] lists the resident pages least recently used first. *)
val lru : t -> Tabs_storage.Disk.page_id list

(** Count of demand-paging faults served, for tests and benchmarks. *)
val faults : t -> int
