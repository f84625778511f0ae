(** Cached WWW page invalidation — the paper's Appendix A, verbatim.

    Each HTML file carries a first-line comment associating it with a
    multicast address ([<!MULTICAST.234.12.29.72.>]).  The HTTP server
    reliably multicasts an invalidation message whenever a local
    document changes:

    {v TRANS:17.0:UPDATE:http://host/page.html v}

    (initial transmission of sequence 17), heartbeats between updates:

    {v TRANS:17.12:HEARTBEAT v}

    (12th heartbeat after update 17), and retransmissions tagged
    [RETRANS].  A client that displays the page subscribes to the
    address, sets an invalidation flag on the cached page when an update
    arrives (highlighting the RELOAD button), and clears it on reload.

    {!Line} is the text codec; {!Server} and {!Client} are the two
    endpoints' application states, designed to ride on an LBRM
    source/receiver (the payload of every LBRM data packet is one
    protocol line). *)

(** The textual wire format. *)
module Line : sig
  type t =
    | Update of { seq : int; hb : int; url : string; retrans : bool }
    | Heartbeat of { seq : int; hb : int }

  val to_string : t -> string
  val of_string : string -> (t, string) result
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit

  val multicast_comment : string -> (int * int * int * int) option
  (** Parse an HTML first-line [<!MULTICAST.a.b.c.d.>] association. *)

  val make_multicast_comment : int * int * int * int -> string
end

(** The HTTP-server side: owns documents, notices modifications. *)
module Server : sig
  type t

  val create : unit -> t

  val publish : t -> url:string -> content:string -> unit
  (** Install (or silently overwrite) a document. *)

  val content : t -> url:string -> string option
  val version : t -> url:string -> int
  (** Modification count, 0 if never published. *)

  val modify : t -> url:string -> content:string -> string
  (** Change a document and return the invalidation payload to hand to
      [Lbrm.Source.send] (the server's invalidation sequence number is
      internal to the payload text; LBRM supplies transport seqs). *)

  val modify_with_content : t -> url:string -> content:string -> string
  (** §4.3's "simple extension": the payload carries the updated
      document itself, so caches refresh without a reload round trip. *)
end

(** The browser side: page cache with invalidation flags. *)
module Client : sig
  type t

  val create : unit -> t

  val cache : t -> url:string -> content:string -> unit
  (** The user visited a page: cache it (and subscribe, in the
      embedding). *)

  val on_payload : t -> string -> (Line.t, string) result
  (** Feed an LBRM-delivered payload.  Plain [Update] lines flag the
      cached page; updates carrying content (from
      {!Server.modify_with_content}) refresh the cache in place.  No-op
      for pages we do not cache. *)

  val needs_reload : t -> url:string -> bool
  (** Whether the RELOAD button is highlighted for this page. *)

  val reload : t -> url:string -> content:string -> unit
  (** The user reloaded: replace content, clear the flag. *)

  val cached : t -> url:string -> string option
  val flagged : t -> string list
  (** All URLs currently needing reload. *)
end
