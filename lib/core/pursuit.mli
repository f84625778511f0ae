(** The per-gap recovery ladder shared by {!Receiver} and the aggregate
    population ([Lbrm_run.Population]).

    One pursuit per missing seq (§2.2): NACK the nearest logger, retry
    there while [attempts < (level + 1) * nack_retry_limit], climb the
    hierarchy (secondary → … → primary), ask the source [Who_is_primary]
    (§2.2.3) and finally give up.  A flush sends one NACK per level,
    seqs ascending.  The MaxIT silence watchdog and its latest query
    ([Nack {seqs = []}]) live here too.

    The only parameter is [missing seq]: how many receivers this machine
    stands for still miss [seq] — 0 or 1 for a receiver, the gap's
    multiplicity for a population.  [0] means repaired: flushes skip the
    seq and its next escalation drops the pursuit.  For [m > 0] a round
    sends [max 1 (min m remcast_request_threshold)] NACK copies, copy [c]
    carrying every seq whose copy count exceeds [c], so a secondary's
    request-count window can choose a site remulticast (§2.2.1).

    The ladder has no buffer of its own: every call that acts pushes
    into the [Io.out] of the machine that embeds it. *)

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
  t
(** [loggers]: the hierarchy, nearest first, non-empty.  [write_off] is
    told each seq the ladder abandons. *)

val loggers : t -> address list
val set_loggers : t -> address list -> unit  (** ignores [[]] *)

val logger_at : t -> int -> address option

val primary_is : t -> Io.out -> address -> unit
(** Replace the last level and re-send every pursuit. *)

val drop_nearest : t -> unit
(** Drop level 0 (keeping one level); pursuits move one level nearer. *)

val adopt_nearest : t -> Io.out -> address -> unit
(** Put a logger first and re-send every pursuit to it from level 0. *)

val open_ : t -> now:float -> seq list -> seq list
(** Pursue the seqs not yet pursued and return them; the caller arms
    [K_nack_flush]. *)

val close : t -> Io.out -> now:float -> seq -> bool
(** [seq] was repaired; [false] (and nothing pushed) if it was not
    pursued. *)

val flush : t -> Io.out -> now:float -> unit  (** [K_nack_flush] *)

val escalate : t -> Io.out -> now:float -> seq -> unit
(** [K_nack_escalate seq]: retry, climb, [Who_is_primary] (re-armed at
    [2 * nack_timeout]), abandon. *)

val unanswered_at_nearest : t -> seq -> bool
(** [seq] is pursued at level 0 and still missing. *)

val heard : t -> now:float -> Io.action  (** re-arms the watchdog *)

val arm_silence : t -> Io.action

val silence : t -> Io.out -> now:float -> highest:seq -> unit
(** [K_silence], before re-arming: report it and, once the flow is
    known, send the nearest logger a latest query. *)

val last_heard : t -> float
val nacks_sent : t -> int  (** wire NACKs, copies and latest queries *)

val gave_up : t -> int  (** pursuits abandoned *)
