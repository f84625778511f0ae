(** Statistical acknowledgement, §2.3 — the source-side machine.

    The multicast transmission is divided into epochs.  Before each
    epoch the source multicasts an Acker Selection Packet carrying an
    acknowledgement probability [p_ack = k / N_sl]; secondary loggers
    volunteer with that probability and become the epoch's Designated
    Ackers.  Each data packet then expects one ACK per designated acker
    within an adaptive wait [t_wait]; missing ACKs that represent enough
    sites trigger an immediate multicast retransmission, otherwise
    recovery is left to unicast NACK service.

    The machine is sans-IO: every call pushes its actions into the
    embedding {!Source}'s buffer, notices and re-multicasts included.
    It reads the source's replay table for the payload to re-multicast,
    and tells the source when ACK collection for a packet is over, so
    the source can drop the payload. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

type t

val create :
  Config.t ->
  self:address ->
  retained:(seq, string * int) Hashtbl.t ->
  ?initial_estimate:float ->
  ?sink:Trace.sink ->
  unit ->
  t
(** [retained] is the embedding {!Source}'s replay table (seq to
    payload and epoch at send), read only to re-multicast.  Without
    [initial_estimate], {!start} begins with a Bolot-style probing
    phase (§2.3.3); with it, the first epoch starts immediately.
    [sink] receives {!Trace.Epoch_settled}, {!Trace.Stat_feedback} and
    {!Trace.Retrans} events (disabled by default); the embedding
    {!Source} passes its own sink down. *)

(** Each call below pushes its actions into the embedder's buffer. *)

val start : t -> Io.out -> unit
(** Begin probing, or set up the first epoch.  Settling an epoch pushes
    an [N_epoch] notice, and the end of probing an [N_estimate]. *)

val epoch : t -> int
(** Epoch number new data packets should carry (0 before the first
    epoch settles). *)

val n_sl : t -> float
(** Current secondary-logger population estimate. *)

val t_wait : t -> float
(** Current ACK-collection wait. *)

val expected_acks : t -> int
(** Designated-acker count of the current epoch. *)

val is_pending : t -> seq -> bool
(** Whether ACK collection for this packet is still in progress. *)

val designated : t -> address list
(** Current epoch's designated ackers. *)

val ignored_ackers : t -> address list
(** Hotlisted (faulty) loggers whose ACKs are discarded. *)

val remulticasts : t -> int
(** Data re-multicasts sent (§2.3.2). *)

val on_data_sent : t -> Io.out -> now:float -> seq -> unit
(** Register a just-multicast data packet and arm its [t_wait] timer.
    No-op when statistical acking is disabled or no epoch is current
    yet. *)

(** The two handlers return [Some seq] when ACK collection for [seq] is
    over: the machine has pushed the packet's [N_feedback] notice (the
    §5 congestion signal) and no longer needs the payload.  A [K_twait]
    whose missing ACKs represent enough sites (§2.3.2) instead pushes a
    fresh [K_twait], re-multicasts the retained payload ([N_remulticast]
    then [Data]; nothing if the payload is gone), pushes [N_feedback]
    and returns [None]. *)

val on_message : t -> Io.out -> now:float -> Lbrm_wire.Message.t -> seq option
(** Handle Acker_reply / Stat_ack / Probe_reply; [None] for every other
    message. *)

val on_timer : t -> Io.out -> now:float -> Io.timer_key -> seq option
(** Handle K_probe / K_epoch_start / K_epoch_settle / K_twait; [None]
    for every other key. *)
