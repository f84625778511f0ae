(** A sender-reliable positive-acknowledgement multicast baseline.

    The paper (§1) argues that positive-acknowledgement schemes in the
    Chang–Maxemchuk tradition are unsuitable for DIS-style multicast:
    every receiver acknowledges every packet, imploding the source, and
    the source must know its receiver list.  This baseline implements
    exactly that — the source multicasts, unicasts selective
    retransmissions to silent receivers on timeout, and counts the ACK
    traffic it absorbs — so experiments can exhibit the implosion LBRM's
    k statistical ACKs avoid. *)

type msg =
  | Data of { seq : int; payload : string }
  | Ack of { seq : int; receiver : Lbrm_sim.Topo.node_id }
  | Retrans of { seq : int; payload : string }

val size_of : msg -> int

type config = {
  rto : float;  (** retransmission timeout, seconds *)
  max_retries : int;
}

val default_config : config

type t

val deploy :
  net:msg Lbrm_sim.Net.t ->
  metrics:Lbrm_util.Metrics.t ->
  config:config ->
  group:int ->
  source:Lbrm_sim.Topo.node_id ->
  receivers:Lbrm_sim.Topo.node_id list ->
  t
(** The source is configured with the full receiver list — the very
    requirement LBRM removes. *)

val send : t -> string -> unit
val acked_by_all : t -> int -> bool
val acks_at_source : t -> int
(** Total ACK packets the source has processed. *)

(** Metrics written: "posack.acks" (= {!acks_at_source}),
    "posack.retrans", "posack.complete" (packets fully acknowledged),
    and the "posack.completion_latency" sample (send → last ACK). *)
