(** The LBRM multicast source.

    Responsibilities (§2):

    - assign sequence numbers (starting at 1; 0 means "nothing sent")
      and multicast application data on the group;
    - hand every packet reliably to the logging infrastructure under
      the configured {!Replication} strategy (primary deposit, ring
      forward, or quorum multicast) with backed-off retransmission;
    - retain payloads until the strategy's durability floor covers them
      (for the paper's primary strategy, the [replica_seq] of
      [Log_ack], §2.2.3), then release;
    - schedule heartbeats under the configured policy (§2.1), optionally
      piggybacking the last small payload (§7 option);
    - run statistical acknowledgement (§2.3) and re-multicast packets
      whose missing ACKs represent enough sites;
    - drive primary-logger fail-over: suspect on repeated deposit
      timeouts, query replicas, promote the most up-to-date one, and
      answer receivers' [Who_is_primary]. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

type t

val create :
  Config.t ->
  self:address ->
  primary:address ->
  ?replicas:address list ->
  ?initial_estimate:float ->
  ?sink:Trace.sink ->
  unit ->
  t
(** [replicas] are the primary log's replicas (used only for fail-over
    bookkeeping at the source).  [initial_estimate] seeds the
    secondary-logger population and skips the probing phase.  [sink]
    receives typed trace events ({!Trace.Send}, deposits, heartbeat
    phases, fail-over steps, stat-ack re-multicasts); it is shared with
    the embedded {!Stat_ack} machine and disabled by default. *)

(** Each entry point pushes its actions into the source's own buffer
    and returns it (see {!Io.out}). *)

val start : t -> now:float -> Io.out
(** Arm the heartbeat timer and begin statistical acknowledgement. *)

val send : t -> now:float -> string -> Io.out
(** Multicast an application payload. *)

val handle_message :
  t -> now:float -> src:address -> Lbrm_wire.Message.t -> Io.out

val handle_timer : t -> now:float -> Io.timer_key -> Io.out

(** {2 Introspection} *)

val last_seq : t -> seq
(** Sequence number of the most recent data packet (0 if none). *)

val current_epoch : t -> int
val primary : t -> address
val retained : t -> int
(** Payloads still buffered awaiting replica acknowledgement. *)

val released : t -> seq
(** Highest sequence number whose buffer has been released. *)

val durable : t -> seq
(** Highest sequence number the active replication strategy considers
    safely logged ({!Replication.durable}). *)

val stat : t -> Stat_ack.t
(** The embedded statistical-acknowledgement machine. *)

val heartbeats_sent : t -> int

val data_multicasts : t -> int
(** Data transmissions including stat-ack re-multicasts. *)

val failovers : t -> int
(** Fail-over rounds begun (primary suspected dead with replicas
    available). *)
