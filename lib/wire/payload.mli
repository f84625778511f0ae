(** Zero-copy payload views.

    A payload is an offset+length window over a backing string.  The
    codec decodes payload-bearing messages into views over the input
    buffer instead of [String.sub]-ing a fresh copy, so runtimes can
    forward a packet's payload (log → retransmit, deposit → replica
    update) without ever copying the bytes.

    Views are only as long-lived as their backing buffer: a view decoded
    out of a reused receive buffer is invalidated the next time that
    buffer is filled.  Anything that retains a payload past the current
    handler turn (the log store, the delivery queue) must go through the
    {!to_owned} escape hatch, which copies the window once — and is free
    when the view already spans a whole private string. *)

type t = private { base : string; off : int; len : int }
(** The fields are exposed read-only so the codec can blit straight out
    of a view; construct via {!of_string} / {!view}. *)

val empty : t

val of_string : string -> t
(** Whole-string view; no copy.  The string is treated as owned:
    {!to_owned} on the result returns it as-is. *)

val view : string -> off:int -> len:int -> t
(** Window into [base].  @raise Invalid_argument on out-of-bounds. *)

val length : t -> int

val to_owned : t -> string
(** The payload bytes as a string safe to retain indefinitely.  Copies
    iff the view is a proper sub-window of its backing buffer. *)

val to_string : t -> string
(** Alias of {!to_owned}. *)

val get : t -> int -> char
(** [get p i] is byte [i] of the view.  @raise Invalid_argument when out
    of bounds. *)

val equal : t -> t -> bool
(** Content equality (byte-for-byte), independent of backing buffers. *)

val compare : t -> t -> int
(** Lexicographic content comparison. *)

val pp : Format.formatter -> t -> unit
val show : t -> string
