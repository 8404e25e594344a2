(** One description per byte format.

    A ['a t] holds the writer and the reader of one format side by side,
    so an encoder and its decoder cannot drift apart. Log records, page
    slots and data-server stubs are all built from these values.
    Hand-rolled rather than [Marshal] so that encodings are stable,
    inspectable, and covered by round-trip and byte-golden tests. *)

module Writer : sig
  type t
end

module Reader : sig
  type t

  exception Malformed of string
end

type 'a t = { write : Writer.t -> 'a -> unit; read : Reader.t -> 'a }

(** Zigzag LEB128: 7 bits a byte, low group first, so a value in
    [-64, 63] takes one byte, [-8192, 8191] two and a 63-bit extreme nine.
    Every length, count, tag, id and LSN in a log record is one. *)
val int : int t

(** Eight bytes, little-endian: an int that fills a fixed-size slot of
    a data page (an array cell, a balance, a queue head). *)
val slot : int t

(** An [int] length, then the bytes. *)
val string : string t

(** One byte, 0 or 1. *)
val bool : bool t

(** No bytes. *)
val unit : unit t

(** An [int] count, then the elements. A count above the bytes left is
    malformed, so each element must take at least one byte. *)
val list : 'a t -> 'a list t

(** A [bool] presence flag, then the value. *)
val option : 'a t -> 'a option t

val pair : 'a t -> 'b t -> ('a * 'b) t

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** [map c ~read ~write] carries a ['b] as [c]'s bytes: [write] turns
    it into an ['a] before writing, [read] turns the read ['a] back. *)
val map : 'a t -> read:('a -> 'b) -> write:('b -> 'a) -> 'b t

val encode : 'a t -> 'a -> string

(** Raises [Reader.Malformed] on truncated input, trailing bytes, a
    varint over nine bytes or a negative or impossible length. *)
val decode : 'a t -> string -> 'a
