(** Runs LBRM agents over real UDP sockets (loopback or LAN) — the
    production transport under {!Agent_host}, which executes the
    agents' actions and keeps their counters.

    Protocol addresses are UDP port numbers; every agent binds
    [127.0.0.1:port] (or a given interface).  A single-threaded
    select(2) loop drives socket reads and the agents' timers, which
    are events of the runtime's own {!Lbrm_sim.Engine}: its clock
    follows the monotonic clock ([clock_gettime(CLOCK_MONOTONIC)] via
    {!Sockmsg} — immune to NTP steps, unlike the wall clock), moved
    forward at every clock reading, and the loop fires what is due,
    then sleeps until the next deadline.  A handler sees the batch's
    or the loop's clock reading, not a fresh one per datagram or per
    timer.

    {b Batched syscalls}: receive scatters up to [batch] datagrams per
    [recvmmsg] into a ring of [batch] fixed slots and decodes each in
    place ({!Lbrm_wire.Codec.decode_bytes_exn}); transmit encodes into
    [batch] more fixed slots ({!Lbrm_wire.Codec.encode_at_exn}) and
    flushes up to [batch] per staged batch, where {!Sockmsg} tiers each
    flush: runs of equal-size datagrams to one peer (retransmission
    bursts) leave as single UDP GSO super-datagrams, mixed stretches via
    [sendmmsg].
    Where the stubs are unavailable (or [~use_mmsg:false]), the same
    paths fall back to portable per-datagram [sendto]/[recvfrom] inside
    {!Sockmsg}.

    {b Allocation}: the runtime owns one codec [Reader], re-aimed at
    every received slot, and one [Writer], re-aimed at every transmit
    slot, so the only per-datagram allocation is the decoded message
    itself.  {!Lbrm_wire.Codec.Malformed} is the malformed path: a
    datagram that raises it on decode is dropped and counted in
    [rx.malformed], never dispatched; a message that raises it on
    encode is counted in {!stats}' [encode_failures].  The clock is read
    once per receive batch and once per send call, and every handler of it
    gets that one reading.  Slots, length/port arrays and metric
    counter handles are all preallocated.

    {b Ack merging}: a cumulative ack ([Log_ack], [Replica_ack],
    [Ring_ack], [Quorum_ack]) that {!Lbrm_wire.Message.supersedes} the
    newest datagram staged to the same port is encoded over that slot
    instead of taking a new one, and counted in {!stats}' [merged], not
    in [sent].  Only the newest datagram to a port is replaced, so each
    port still gets its datagrams in send order, minus acks that their
    dominator followed at once; every consumer folds these floors with
    max, so it ends in the same state.  A logger draining a batch of
    deposits thus sends one ack per destination per flush, not one per
    deposit.

    {b Groups}: each group is an ascending array of member ports, set
    by {!join} and {!leave} and replaced, never mutated, on each
    change.  The runtime keeps no per-peer liveness: LBRM detects a
    dead source or logger by itself (heartbeat silence, NACK timeouts,
    rediscovery), and a receiver that sees no loss never speaks.

    {b Multicast emulation}: the sealed environment offers no
    multicast-capable network, so group sends fan out as unicast
    datagrams over the membership index (one copy per member but the
    sender, walking the group's port array in place).  This preserves
    LBRM's delivery semantics; TTL scoping is a no-op (scope control is
    exercised in the simulator).  See DESIGN.md "Real transport".

    {b Loss injection}: [loss] drops outgoing datagrams with the given
    probability — real loopback never loses packets, and exercising
    recovery is the point of the demo.  Injected loss ([dropped]) is
    counted apart from [encode_failures] (unencodable messages, which also raise
    {!Lbrm.Trace.Encode_failed}).

    {b Disk tier}: each receive drain and each timer run is one
    {!File_ops} group, closed before the drain's last transmit flush
    and also when a handler raises.  The archives' fsyncs run once per
    path at the group's end, ahead of the low-water records that wait
    on them.  Datagrams flushed earlier in the drain may leave before
    that commit: acks report the tiered memory+disk floor, which never
    waited for an fsync. *)

type t

type stats = {
  sent : int;  (** datagrams handed to the kernel *)
  merged : int;
      (** cumulative acks folded into a staged ack they supersede
          ({!Lbrm_wire.Message.supersedes}); each unicast ack the
          machines asked for is counted in [sent] or here, or lost to
          [dropped] or [encode_failures] *)
  dropped : int;  (** by the loss-injection hook only *)
  encode_failures : int;
      (** refused by the encoder ({!Lbrm_wire.Codec.Malformed}) *)
  oversize : int;  (** sent via the growable-scratch slow path *)
  tx_batches : int;
  tx_datagrams : int;  (** datagrams through staged batches *)
  rx_batches : int;
  rx_datagrams : int;
  rx_truncated : int;  (** datagrams bigger than a receive slot *)
  pool_fallbacks : int;
      (** always 0: the rx ring and tx stage have fixed slots, so no
          datagram falls back to a heap buffer *)
}

val create :
  ?bind_ip:string ->
  ?loss:float ->
  ?seed:int ->
  ?batch:int ->
  ?slot_size:int ->
  ?use_mmsg:bool ->
  ?sink:Lbrm.Trace.sink ->
  unit ->
  t
(** Defaults: 127.0.0.1, no loss, batch 64 (clamped to
    {!Sockmsg.batch_max}), slots of 2048 bytes (at least 64), mmsg and
    GSO on where available, no trace sink.  The runtime holds one region
    of [2 * batch] slots: the receive ring, then the transmit stage.
    [~use_mmsg:false] forces the portable per-datagram fallback (the
    benchmark baseline). *)

val now : t -> float
(** Seconds since {!create} (monotonic clock). *)

val mmsg_active : t -> bool
(** Whether this runtime is actually using recvmmsg/sendmmsg. *)

val gso_active : t -> bool
(** Whether flushes may take the UDP GSO transmit tier (batching on,
    kernel support probed). *)

val add_agent : t -> port:int -> Handlers.t -> unit
(** Bind a socket and install the agent.  Raises [Unix.Unix_error] if
    the port is taken. *)

val join : t -> group:int -> port:int -> unit
(** Add [port] to [group]'s fan-out; a second join is a no-op. *)

val leave : t -> group:int -> port:int -> unit

val perform : t -> port:int -> Lbrm.Io.out -> unit
(** Drain a call's actions for an agent (kick-off, application sends)
    after reading the clock, so its timers count from now.  Any staged
    datagrams are flushed before returning. *)

val run_for : t -> seconds:float -> unit
(** Drive the event loop for a wall-clock duration.  Each [select] waits
    until the next timer or the end of the run, whichever comes first,
    and never past it: a quiet runtime returns from [~seconds:1e-4]
    after about 0.1 ms. *)

val stats : t -> stats
(** Full transport counters (batching, oversize, truncation). *)

val runtime_metrics : t -> Lbrm_util.Metrics.t
(** Runtime-level counters: [tx.encode_failed], [rx.truncated],
    [rx.malformed]. *)

val agent_metrics : t -> (int * Lbrm_util.Metrics.t) list
(** Per-agent registries, ascending by port: one ["sent.<kind>"] per
    datagram staged, ["recv.<kind>"] per datagram decoded, and delivery
    counts.  Notices are not recorded here. *)

val close : t -> unit
(** Flush the transmit stage and close every socket. *)

(** {2 Allocation cross-check hook}

    Exists solely so [test/test_transport.ml] can measure the staging
    path's zero-tagged manifest entries with [Gc.minor_words]. *)
module Hot : sig
  val stage : t -> port:int -> dst:int -> Lbrm_wire.Message.t -> unit
  (** [stage t ~port] is the transmit path of the agent at [port]: each
      call stages one datagram (merging a superseding ack) as a [Send]
      would, without reading the clock or flushing a partial stage. *)
end
