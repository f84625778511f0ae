(** Protocol adapter for an aggregate receiver population.

    Wraps a {!Lbrm_sim.Site_population} statistical model in the wire
    protocol: one agent stands in for the whole site population on the
    data group.  Recovery is {!Lbrm.Pursuit}, the ladder {!Lbrm.Receiver}
    runs — NACKs, escalation, the §7 retransmission channel and
    expanding-ring rediscovery of a dead nearest logger (§2.2.1) — with
    [Site_population.remaining] as its missing count: one pursuit per
    {e distinct} gap, and a gap missed by [m] receivers goes out in
    [min m remcast_request_threshold] NACK copies per round so the
    logger's unicast-vs-site-remulticast choice (§2.2.1) still sees it.
    This module keeps only the model adapter: every arriving payload is
    offered to the model, which samples how many receivers (and which
    tracers) get it; sampled tracer outcomes go to [on_feed] so the
    embedding can inject them into real receiver machines.  Statistical
    acknowledgement needs no adaptation: designated ackers are secondary
    loggers, which stay real machines. *)

type address = Lbrm_wire.Message.address

type t

val create :
  ?sink:Lbrm.Trace.sink ->
  cfg:Lbrm.Config.t ->
  self:address ->
  source:address ->
  loggers:address list ->
  model:Lbrm_sim.Site_population.t ->
  on_feed:(tracer:int -> now:float -> src:address -> Lbrm_wire.Message.t -> unit) ->
  unit ->
  t
(** [loggers] is the recovery hierarchy, nearest first (non-empty).
    [on_feed ~tracer] fires, during message handling, once per tracer
    the model sampled as receiving the payload being processed. *)

(** Each entry point pushes into the population's own action buffer
    and returns it (see {!Lbrm.Io.out}). *)

val handle_message :
  t -> now:float -> src:address -> Lbrm_wire.Message.t -> Lbrm.Io.out

val handle_timer : t -> now:float -> Lbrm.Io.timer_key -> Lbrm.Io.out

val start : t -> now:float -> Lbrm.Io.out
(** Arm the MaxIT silence watchdog. *)

val handlers :
  ?on_notice:(now:float -> Lbrm.Io.notice -> unit) -> t -> Handlers.t

val model : t -> Lbrm_sim.Site_population.t
(** The model's delivery ledger: delivered, recovered, gave up. *)

val missing : t -> int  (** receivers-still-missing over live gaps *)
