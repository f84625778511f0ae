(** Logging servers — the heart of LBRM's recovery path (§2.2).

    One module implements every role, reflecting the paper's observation
    that "much of the code is reusable … because of the recursive nature
    of the distributed logging architecture":

    - {b primary} ([parent = None]): receives reliable [Log_deposit]s
      from the source, acknowledges each with both its own and the best
      replica's contiguous sequence, and replicates every deposit to
      the replicas that lack it — a [Replica_update] to each replica
      whose acked floor is below the seq, retried until it acks, even
      when the primary already logged the seq off the data group
      (§2.2.3);
    - {b secondary} ([parent = Some _]): listens on the data multicast
      group, logs everything, recovers its own losses from its parent,
      and serves its site's retransmission requests — unicast normally,
      site-scoped multicast when enough requests for the same packet
      arrive in a window (§2.2.1);
    - {b replica}: passive copy fed by the primary, promotable on
      fail-over;
    - {b ring} and {b quorum} members: log each deposit, then forward
      it down the chain or ack their own floor;
    - every secondary also participates in statistical acknowledgement
      (volunteering as Designated Acker with probability [p_ack]) and in
      group-size probing (§2.3), and answers expanding-ring discovery
      queries (§2.2.1).

    Every path that logs a packet — data, repairs, deposits, replica
    updates, ring forwards — runs the same step: store it, trace
    {!Trace.Log_write} when the seq is fresh, advance the durability
    floor, chase any gap it reveals, and serve requesters waiting on
    it.  Each message then adds only its own reply. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

type t

val create :
  Config.t ->
  self:address ->
  source:address ->
  ?parent:address ->
  ?replicas:address list ->
  ?succ:address ->
  ?archive:Archive.t ->
  rng:Lbrm_util.Rng.t ->
  ?sink:Trace.sink ->
  unit ->
  t
(** [parent = None] makes this the primary.  [succ] is the next hop for
    ring replication ([None] on a ring member makes it the tail).  [rng]
    drives the probabilistic Acker/probe volunteering.  With [archive],
    packets evicted from the in-memory store spill to disk and stay
    servable (§2's "writing them to disk once in-memory buffers are
    full"); if the disk tier raises {!Archive.Fs_error} during eviction
    the logger degrades gracefully — the tier is disabled, the error
    counted, an {!Trace.Archive_degraded} event emitted, and service
    continues from memory.  An archive that already holds history (a
    restart) seeds the logger's durability floor from its persisted
    low-water mark. *)

val handle_message :
  t -> now:float -> src:address -> Lbrm_wire.Message.t -> Io.out
(** Pushes into the logger's own action buffer and returns it (see
    {!Io.out}); so does {!handle_timer}. *)

val handle_timer : t -> now:float -> Io.timer_key -> Io.out

(** {2 Introspection} *)

val is_primary : t -> bool
val store : t -> Log_store.t
val self : t -> address
val requests_served : t -> int
(** Retransmissions sent (unicast or multicast). *)

val remulticasts : t -> int
(** Site-scoped multicast repairs sent. *)

val uplink_nacks : t -> int
(** Requests this logger sent up the hierarchy. *)

val designated_for : t -> int list
(** Epochs for which this logger volunteered as Designated Acker. *)

val archive_write_errors : t -> int
(** Disk-tier failures absorbed (the tier is disabled on the first
    one, whether a spill, a lookup or a compaction raised it: a failed
    fsync the fs deferred surfaces at the next call). *)

val archive_reads : t -> int
(** Retransmission lookups that missed the in-memory store and were
    served from the disk tier. *)

val archive_enabled : t -> bool
(** Whether the disk tier is still attached and serving. *)

val durable_floor : t -> Lbrm_util.Seqno.t
(** The durability floor this logger reports in
    [Log_ack]/[Replica_ack]/[Ring_ack]/[Quorum_ack]/[Replica_status].
    Without a disk tier: the in-memory store's contiguous mark.  With
    one: the tiered memory+disk contiguous floor, seeded after a
    restart from the archive's persisted low-water mark — so a rejoined
    member never overstates what it holds. *)

val compact_archive : t -> now:float -> floor:Lbrm_util.Seqno.t -> int
(** Reclaim archive segments wholly at or below [floor] (whole-segment
    compaction), emitting {!Trace.Segment_compacted} per segment;
    returns how many were reclaimed.  0 without a disk tier, or when
    the compaction fails and the tier is disabled. *)

val successor : t -> address option
(** Ring replication: this member's next hop ([None] = tail, or not a
    ring member). *)
