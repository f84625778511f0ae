(** The receive-side recovery ladder: everything a receiving machine does
    about a missing packet.  {!Receiver} and the aggregate population
    ([Lbrm_run.Population]) only feed it gaps and repairs.

    One pursuit per missing seq (§2.2): NACK the nearest logger, retry
    there while [attempts < (level + 1) * nack_retry_limit], climb the
    hierarchy (secondary → … → primary), ask the source [Who_is_primary]
    (§2.2.3) and finally give up.  A flush sends one NACK per level,
    seqs ascending.  With a §7 retransmission channel configured, a new
    gap joins the channel and delays its first flush by the channel's
    window; the channel is left once nothing is pursued.  After
    [retrans_retry_limit] unanswered level-0 rounds, or past
    [rediscovery_silence] with nothing heard, the nearest logger is
    dropped and an expanding-ring search (§2.2.1) looks for a new one.
    The MaxIT silence watchdog and its latest query ([Nack {seqs = []}])
    live here too.

    The only parameter is [missing seq]: how many receivers this machine
    stands for still miss [seq] — 0 or 1 for a receiver, the gap's
    multiplicity for a population.  [0] means repaired: flushes skip the
    seq and its next escalation drops the pursuit.  For [m > 0] a round
    sends [max 1 (min m remcast_request_threshold)] NACK copies, copy [c]
    carrying every seq whose copy count exceeds [c], so a secondary's
    request-count window can choose a site remulticast (§2.2.1).

    The ladder has no buffer of its own: every call pushes into the
    [Io.out] of the machine that embeds it. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t
type t

val create :
  ?sink:Trace.sink ->
  Config.t ->
  self:address ->
  source:address ->
  loggers:address list ->
  missing:(seq -> int) ->
  write_off:(seq -> unit) ->
  highest:(unit -> seq) ->
  t
(** [loggers]: the hierarchy, nearest first, non-empty.  [write_off] is
    told each seq the ladder abandons.  [highest ()] is the highest seq
    known to exist (0 if none); the watchdog reads it. *)

val start : t -> Io.out -> unit
(** Arm the MaxIT silence watchdog. *)

val arrival :
  t -> Io.out -> now:float -> src:address -> Lbrm_wire.Message.t -> unit
(** Every message, before the embedder looks at its payload: Data,
    Heartbeat and Retrans re-arm the watchdog (a Retrans from the
    nearest logger also proves it alive); [Primary_is] and
    [Discovery_reply] are consumed here. *)

val open_ : t -> Io.out -> now:float -> seq list -> unit
(** Pursue the seqs not yet pursued: report the gap, arm the flush and,
    with a channel configured, join it. *)

val close : t -> Io.out -> now:float -> seq -> unit
(** [seq] was repaired; nothing happens if it was not pursued. *)

val handle_timer : t -> Io.out -> now:float -> Io.timer_key -> unit
(** [K_nack_flush], [K_nack_escalate], [K_discovery] and [K_silence];
    other keys are ignored. *)

val loggers : t -> address list  (** the hierarchy, nearest first *)

val nacks_sent : t -> int  (** wire NACKs, copies and latest queries *)

val gave_up : t -> int  (** pursuits abandoned *)

val rediscoveries : t -> int  (** nearest loggers replaced *)

val discovering : t -> bool  (** an expanding-ring search is in flight *)
