(** The LBRM receiver.

    Detects loss two ways (§2): a gap in sequence numbers, or silence —
    no packet of any kind for MaxIT.  Everything done about a missing
    packet is {!Pursuit}, shared with the aggregate population: NACKing
    the nearest logging server, climbing the hierarchy (secondary → … →
    primary) and asking the source [Who_is_primary] (§2.2.3), the §7
    retransmission channel, and expanding-ring rediscovery of a nearest
    logger that stopped answering (§2.2.1).  A receiver stands for one
    member, so each seq it misses goes out in one NACK copy.  What stays
    here is the gap tracker and delivery.

    The receiver is {e receiver-reliable}: payloads are delivered to the
    application immediately and unordered; recovery of a given packet
    can be abandoned (after the retry budget) without stalling anything
    else. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

type t

val create :
  ?sink:Trace.sink ->
  Config.t ->
  self:address ->
  source:address ->
  loggers:address list ->
  t
(** [loggers] is the recovery hierarchy, nearest first (e.g.
    [[site_secondary; regional; primary]]); it must be non-empty.
    [sink] receives typed trace events (gaps, NACKs, deliveries,
    rediscovery steps); disabled by default. *)

(** Each entry point pushes its actions into the receiver's own buffer
    and returns it (see {!Io.out}). *)

val start : t -> now:float -> Io.out
(** Arm the MaxIT silence watchdog. *)

val handle_message :
  t -> now:float -> src:address -> Lbrm_wire.Message.t -> Io.out

val handle_timer : t -> now:float -> Io.timer_key -> Io.out

(** {2 Introspection} *)

val missing : t -> seq list
val delivered : t -> int
(** Count of payloads handed to the application. *)

val recovered : t -> int
(** Of those, how many arrived via repair. *)

val gave_up : t -> int
val nacks_sent : t -> int
val loggers : t -> address list
(** Current recovery hierarchy, nearest first. *)

val rediscoveries : t -> int
(** Times a failed nearest logger was replaced via expanding-ring
    discovery. *)

val discovering : t -> bool
(** Whether an expanding-ring search is currently in flight. *)
