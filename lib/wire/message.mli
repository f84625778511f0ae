(** LBRM protocol messages.

    One variant per packet type exchanged by sources, receivers and
    logging servers.  The [address] fields are small integer tokens: the
    simulated runtime resolves them to node ids, the UDP runtime to
    socket addresses via its registry.

    Payload-bearing variants carry a {!Payload.t} view rather than a
    string: decoding is zero-copy (the view windows the receive buffer)
    and state machines that retain a payload own it explicitly via
    {!Payload.to_owned}. *)

type seq = Lbrm_util.Seqno.t

type address = int
(** Endpoint token (logger id, etc.); resolution is a runtime concern. *)

type t =
  | Data of { seq : seq; epoch : int; payload : Payload.t }
      (** Application data, multicast by the source. *)
  | Heartbeat of {
      seq : seq;
      hb_index : int;
      epoch : int;
      payload : Payload.t option;
    }
      (** Keep-alive repeating the last sequence number.  [payload] is
          the §7 option of carrying the (small) original packet in place
          of an empty heartbeat. *)
  | Nack of { seqs : seq list }
      (** Retransmission request, receiver/secondary → logger. *)
  | Retrans of { seq : seq; epoch : int; payload : Payload.t }
      (** Repair, unicast or site-scoped multicast. *)
  | Log_deposit of { seq : seq; epoch : int; payload : Payload.t }
      (** Reliable handoff, source → primary logger. *)
  | Log_ack of { primary_seq : seq; replica_seq : seq }
      (** Primary → source: highest contiguously logged sequence numbers
          at the primary and at its most up-to-date replica (§2.2.3). *)
  | Replica_update of { seq : seq; epoch : int; payload : Payload.t }
      (** Primary → replica, reliable. *)
  | Replica_ack of { seq : seq }
      (** Replica → primary: highest contiguous sequence logged. *)
  | Acker_select of { epoch : int; p_ack : float }
      (** Acker Selection Packet starting a new epoch (§2.3.1). *)
  | Acker_reply of { epoch : int; logger : address }
      (** A secondary logger volunteering as Designated Acker. *)
  | Stat_ack of { epoch : int; seq : seq; logger : address }
      (** Designated Acker's per-packet acknowledgement. *)
  | Probe of { round : int; p : float }
      (** Group-size estimation probe (§2.3.3, after Bolot et al.). *)
  | Probe_reply of { round : int; logger : address }
  | Discovery_query of { nonce : int }
      (** Expanding-ring secondary-logger discovery (§2.2.1). *)
  | Discovery_reply of { nonce : int; logger : address }
  | Who_is_primary
      (** Receiver → source after primary-log failure (§2.2.3). *)
  | Primary_is of { logger : address }
  | Replica_query
      (** Source → replica during fail-over: what have you logged? *)
  | Replica_status of { seq : seq }
      (** Replica → source: highest contiguously logged sequence. *)
  | Promote of { replicas : address list }
      (** Source → chosen replica: become the primary, with the
          remaining replica set. *)
  | Ring_forward of { seq : seq; epoch : int; payload : Payload.t }
      (** Ring replication: deposit forwarded hop-by-hop, source → ring
          head → successor → … → tail. *)
  | Ring_ack of { seq : seq }
      (** Ring tail → source: highest sequence contiguously logged by
          the whole ring (cumulative, pipelined). *)
  | Ring_set of { succ : address option; head : address }
      (** Source → ring member during ring repair: your new successor
          ([None] = you are the tail) and the new head. *)
  | Quorum_ack of { seq : seq }
      (** Replica-set member → source: highest contiguously logged
          sequence at that member (the member's ack floor). *)
[@@deriving show, eq]

val header_overhead : int
(** Modeled IP + UDP header bytes added to every packet (28). *)

val body_size : t -> int
(** Exact {!Codec} encoding length in bytes (tag + fields).  Computed
    without allocating; the codec sizes its output buffers with it. *)

val wire_size : t -> int
(** Total modeled on-wire size in bytes: {!header_overhead} plus
    {!body_size}. *)

val kind : t -> string
(** Short tag for traces, e.g. ["data"], ["nack"]. *)

val is_cumulative_ack : t -> bool
(** [Log_ack], [Replica_ack], [Ring_ack] and [Quorum_ack]: the acks that
    carry cumulative floors, which every consumer folds with
    {!Lbrm_util.Seqno.max}. *)

val supersedes : t -> t -> bool
(** [supersedes next prev] holds when both are the same cumulative ack
    kind and every floor of [next] is at or above the same floor of
    [prev] in {!Lbrm_util.Seqno} order.  A consumer that folds its floors
    with max then ends in the same state after [next] alone as after
    [prev] then [next], so a transport may replace a [prev] it has not
    yet sent with [next].  Never true for any other message.
    Allocation-free. *)

val is_control : t -> bool
(** Everything except [Data], [Retrans] and payload-bearing heartbeats. *)
