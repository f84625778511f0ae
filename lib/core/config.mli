(** Protocol parameters.

    {!default} carries the paper's DIS values: h_min = 0.25 s (the 1/4 s
    freshness requirement of §2.1.2), h_max = 32 s, backoff 2, and
    statistical acknowledgement with 5–20 designated ackers (§2.3.1). *)

type heartbeat_policy =
  | Fixed  (** heartbeat every [h_min] while idle — the §2.1.2 baseline *)
  | Variable  (** exponential backoff from [h_min] to [h_max] — LBRM *)

type replication =
  | R_primary
      (** §2.2.3 primary/secondary: deposits go to one primary which
          fans updates to replicas; fail-over queries the replica set *)
  | R_ring
      (** deposits forwarded hop-by-hop around an ordered replica ring
          with pipelined cumulative acks from the tail *)
  | R_quorum
      (** source multicasts deposits to every replica-set member; a seq
          is durable once a majority acks *)

val replication_label : replication -> string
(** ["primary"], ["ring"], ["quorum"]. *)

val replication_of_string : string -> replication option
(** Inverse of {!replication_label}. *)

type t = {
  group : int;  (** data multicast group id *)
  (* heartbeats *)
  heartbeat_policy : heartbeat_policy;
  h_min : float;  (** minimum inter-heartbeat time, seconds *)
  h_max : float;  (** maximum inter-heartbeat time, seconds *)
  backoff : float;  (** inter-heartbeat growth multiple (> 1) *)
  heartbeat_payload_max : int;
      (** §7 option: if the last data payload is at most this many bytes,
          heartbeats carry it (0 disables) *)
  (* receiver *)
  max_it : float;
      (** silence bound before the receiver flags possible loss; with
          variable heartbeats the source only guarantees a packet every
          [h_max], so this should be ≥ [h_max] plus slack *)
  nack_delay : float;
      (** wait before NACKing a detected gap, to ride out reordering
          (Appendix A's "short retransmission request timer") *)
  nack_timeout : float;  (** repair wait before escalating a level *)
  nack_retry_limit : int;  (** attempts per level before giving up *)
  retrans_retry_limit : int;
      (** consecutive unanswered retransmission requests to the nearest
          logger before the receiver discards it and restarts
          expanding-ring discovery (§2.2.1) *)
  rediscovery_silence : float;
      (** silence deadline (seconds since anything was heard) past which
          the receiver abandons its nearest logger and rediscovers *)
  recover_from_start : bool;
      (** sequence numbering starts at 1, so a receiver whose first
          packet has seq > 1 knows the earlier ones exist; when set, it
          recovers them (back-fills history after joining late or losing
          the first packets) *)
  (* source → logger deposit handoff *)
  replication : replication;  (** logger-replication strategy *)
  deposit_timeout : float;  (** initial deposit retry timer *)
  deposit_backoff : float;
      (** retry-delay growth multiple per unacked attempt (>= 1) *)
  deposit_timeout_max : float;  (** cap on the backed-off retry delay *)
  deposit_retry_limit : int;  (** then the deposit target is suspected dead *)
  source_retain_max : int;
      (** soft cap on the source's replay table: above it, entries that
          both the primary and best replica have acknowledged are
          evicted even if statistical acking still tracks them
          (0 = unbounded) *)
  (* logger *)
  remcast_request_threshold : int;
      (** a secondary re-multicasts a repair once this many requests for
          the same packet arrive in a window (§2.2.1) *)
  retention : Log_store.retention;
  (* statistical acknowledgement (§2.3) *)
  stat_ack_enabled : bool;
  k_ackers : int;  (** desired designated-acker count (5–20) *)
  epoch_interval : float;  (** seconds between Acker Selection Packets *)
  t_wait_init : float;  (** initial ACK-collection wait *)
  remcast_site_threshold : float;
      (** re-multicast when missing ACKs represent at least this many
          sites *)
  estimate_alpha : float;  (** EWMA gain of the N_sl estimator (1/8) *)
  (* discovery (§2.2.1) *)
  discovery_group : int;
  discovery_max_ttl : int;
  (* retransmission channel (§7, first bullet) *)
  rchannel_group : int option;
      (** separate multicast channel on which the source re-multicasts
          every packet a few times with exponential backoff; receivers
          subscribe on loss instead of NACKing.  [None] disables. *)
  (* disk tier *)
  archive_segment_bytes : int;
      (** rotate the archive's active segment once it reaches this many
          bytes (default 256 KiB) *)
  archive_index_stride : int;
      (** sealed-segment sparse-index sampling interval: one in-memory
          checkpoint per this many sidecar entries *)
  archive_lwm_stride : int;
      (** ignored, and due for deletion: the archive persists its
          low-water mark at each seal, compaction and sync *)
}

val default : t
(** DIS defaults: variable heartbeat 0.25/32/2; MaxIT 2·h_max; NACK
    delay 10 ms; stat-ack on with k = 20, 30 s epochs. *)

val fixed_heartbeat : t -> t
(** The same configuration with the fixed-heartbeat baseline policy. *)

val validate : t -> (t, string) result
(** Check parameter sanity (h_min ≤ h_max, backoff > 1, …). *)

val deposit_delay : t -> attempt:int -> float
(** Retry delay for 0-based deposit [attempt]:
    [deposit_timeout · deposit_backoff^attempt] capped at
    [deposit_timeout_max]. *)

val rchannel_copies : int
(** Copies of each packet placed on the §7 retransmission channel (n). *)

val rchannel_window : t -> float
(** How long a fresh packet can still appear on the §7 retransmission
    channel: the sum of its [rchannel_copies] backed-off copy gaps,
    [h_min · backoff^k].  Receivers and loggers that join the channel on
    loss wait this long before NACKing. *)
