(** Typed protocol trace events — the observability plane's vocabulary.

    The five state machines (source, logger, receiver, heartbeat via
    the source's [Heartbeat_phase], statistical acknowledgement) emit
    {!record}s through a {!sink}.  The contract at every call site is

    {[ if Trace.is_on sink then Trace.emit sink ~at ~node (Send { seq }) ]}

    so that a disabled sink costs one load and one branch and never
    allocates the event — "zero-cost when disabled".

    Determinism guarantee: rendering uses a fixed field order and
    [%.17g] floats, and records are kept in emission order, so a
    deterministic run (equal engine seed) produces a byte-identical
    JSONL stream.  The golden-trace tests and the determinism soak rely
    on this. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

(** How a repair reached the receiver: logger unicast, a secondary's
    site-scoped re-multicast (§2.2.1), the §7 retransmission channel,
    or a statistical-acknowledgement re-multicast by the source
    (§2.3.2). *)
type retrans_mode =
  | R_unicast of address
  | R_site_mcast
  | R_rchannel
  | R_stat

type failover_step =
  | F_suspected  (** deposit retries exhausted; primary suspected dead *)
  | F_query of { round : int; replicas : int }
      (** [Replica_query] multicast to the replica set *)
  | F_promoted of { primary : address; redeposits : int }
      (** most up-to-date replica promoted; [redeposits] retained
          packets re-deposited (under quorum, those some member
          lacks) *)
  | F_kept of address  (** no replica answered; old primary kept *)

type rediscovery_step =
  | D_started  (** expanding-ring search armed (§2.2.1) *)
  | D_adopted of address  (** a live logger answered and was adopted *)
  | D_exhausted  (** ring exhausted with no answer *)

type event =
  | Send of { seq : seq }  (** source data multicast *)
  | Deliver of { seq : seq; recovered : bool }  (** receiver hand-up *)
  | Gap_detected of { seqs : seq list }  (** receiver opened pursuits *)
  | Nack_sent of { dest : address; level : int; seqs : seq list }
      (** receiver NACK at a hierarchy level; [seqs = []] is a latest
          query after MaxIT silence *)
  | Uplink_nack of { dest : address; seqs : seq list }
      (** secondary logger chasing its own gaps up the hierarchy *)
  | Retrans of { seq : seq; mode : retrans_mode }
  | Heartbeat_phase of { hb_index : int; interval : float; seq : seq }
      (** heartbeat sent; [interval] is the variable-backoff phase the
          machine is in after this beat *)
  | Deposit_sent of { seq : seq; attempt : int }
  | Deposit_acked of { primary_seq : seq; replica_seq : seq }
  | Log_write of { seq : seq; recovered : bool }  (** logger stored it *)
  | Failover_step of failover_step
  | Rediscovery of rediscovery_step
  | Gave_up of { seq : seq }  (** receiver abandoned recovery *)
  | Epoch_settled of { epoch : int; expected : int; p_ack : float }
  | Stat_feedback of { seq : seq; missing : int; expected : int }
  | Silence of { elapsed : float }  (** MaxIT passed with nothing heard *)
  | Pop_arrival of { seq : seq; members : int; missed : int }
      (** an aggregate site population was offered a fresh payload:
          [members] receivers modeled, [missed] sampled as losing it —
          the multiplicity that individual-receiver events carry
          implicitly *)
  | Pop_repair of { seq : seq; repaired : int; remaining : int }
      (** a repair round over a population gap: [repaired] receivers
          recovered, [remaining] still missing *)
  | Encode_failed of { kind : string; size : int }
      (** a runtime refused to ship a message that would not fit its
          transmit slot ([size] is the oversized body); distinct from
          injected loss *)
  | Ring_forwarded of { seq : seq; dest : address }
      (** ring replication: a member logged a deposit and forwarded it
          to its successor [dest] *)
  | Quorum_acked of { seq : seq; floor : seq }
      (** quorum replication: a member logged deposit [seq] and acked
          its contiguous floor back to the source *)
  | Ack_floor of { durable : seq; acked : seq }
      (** the source's durability floor advanced: [durable] is the
          highest seq safely logged under the active strategy's ack
          policy, [acked] the highest individually acked *)
  | Archive_degraded of { seq : seq }
      (** the logger's disk tier failed writing [seq] and was disabled;
          service continues from memory *)
  | Archive_read of { seq : seq }
      (** a retransmission missed the in-memory store and was served
          from the disk tier *)
  | Segment_rotated of { segment : int }
      (** the archive sealed segment [segment] and opened a fresh
          active one *)
  | Segment_compacted of { segment : int }
      (** sealed segment [segment] fell wholly below the retention
          floor and was reclaimed *)

type record = { at : float; node : address; ev : event }

(** {2 Sinks} *)

type sink = { mutable enabled : bool; mutable push : record -> unit }

val null : unit -> sink
(** Disabled sink; [emit] through it is a no-op. *)

val is_on : sink -> bool
(** Guard for call sites: skip event construction when disabled. *)

val emit : sink -> at:float -> node:address -> event -> unit

(** Unbounded in-memory collector (tests, the timeline tool). *)
module Collector : sig
  type t

  val create : unit -> t
  val sink : t -> sink
  val records : t -> record list
  (** In emission order. *)

  val count : t -> int
  val clear : t -> unit
end

(** Bounded ring buffer: keeps the most recent [capacity] records,
    counting what it overwrote.  The flight-recorder exporter. *)
module Ring : sig
  type t

  val create : capacity:int -> t
  val capacity : t -> int
  val sink : t -> sink

  val records : t -> record list
  (** The retained window, oldest first. *)

  val pushed : t -> int
  val dropped : t -> int
end

(** {2 Deterministic rendering} *)

val to_jsonl : record -> string
(** One JSON object, fixed field order, no trailing newline. *)

val jsonl_of_records : record list -> string
(** Newline-terminated JSONL document. *)

val digest : record list -> string
(** MD5 hex of {!jsonl_of_records} — the golden-trace fingerprint. *)

val mode_label : retrans_mode -> string
(** ["unicast"], ["site_mcast"], ["rchannel"] or ["stat_remcast"]. *)

(** {2 Trace queries}

    The chaos invariants (exactly one [F_promoted] per primary crash,
    every orphan adopts a live logger) are expressed over these instead
    of bespoke machine counters. *)
module Query : sig
  val promotions : record list -> record list
  val rediscovery_adoptions : record list -> record list
end
