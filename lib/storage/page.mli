(** Fixed-size pages, the unit of disk transfer and of value logging.

    Accent pages are 512 bytes (Section 5.1); a value log record holds at
    most one page of an object's representation (Section 2.1.3). An image
    is immutable, so the disk and the buffer pool share it. *)

(** Bytes per page. *)
val size : int

type t = string

(** The all-zero image every never-written sector shares. *)
val zero : t

(** [update t f] is a new image: a copy of [t] edited in place by [f]. *)
val update : t -> (bytes -> unit) -> t

(** [blit_string s b ~off] writes [s] into the page buffer [b] at byte
    offset [off]. Raises [Invalid_argument] if the write would overflow
    the page. *)
val blit_string : string -> bytes -> off:int -> unit

(** [get_int t ~off] reads a 63-bit OCaml integer stored in 8 bytes
    little-endian at byte offset [off]. *)
val get_int : t -> off:int -> int

val equal : t -> t -> bool
