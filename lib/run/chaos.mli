(** End-to-end chaos harness: scripted and randomized fault schedules
    over {!Scenario.standard} deployments, with invariant checking after
    quiescence.

    Every scenario drives a packet stream, injects faults through
    {!Lbrm_sim.Fault}, runs well past the last repair, and then checks
    the receiver-reliable contract:

    - {e gap-free}: every receiver delivered every sequence number the
      source ever multicast;
    - {e duplicate-free}: no receiver incarnation handed the same
      sequence number to the application twice;
    - {e nothing abandoned}: no recovery exhausted its retry budget;
    - {e durable}: with a majority of the replica set up at the end,
      the source's durable floor reached its last sequence number,
      under every replication strategy;
    - scenario-specific expectations (exactly one fail-over, every
      orphaned receiver rediscovered a logger, a partition never causes
      fail-over, …).

    Fail-over and rediscovery latencies are recorded as
    ["failover_latency"] / ["rediscovery_latency"] samples on the
    deployment's {!Lbrm_sim.Trace}, where benchmarks pick them up.

    Every scenario also runs with a {!Lbrm.Trace.Collector} sink shared
    by all state machines; the scenario-specific expectations
    (exactly-one-Promote, every orphan rediscovered, partition never
    fails over) are asserted as {!Lbrm.Trace.Query} queries over that
    merged stream rather than bespoke counters. *)

type outcome = {
  name : string;
  violations : string list;  (** empty iff every invariant held *)
  failovers : int;  (** fail-over rounds the source began *)
  rediscoveries : int;
      (** receivers that replaced a dead logger via discovery *)
  delivered : int;  (** total application deliveries *)
  durable : int;
      (** the source's durable floor at the end ({!Lbrm.Source.durable}) *)
  trace : Lbrm_sim.Trace.t;
  events : Lbrm.Trace.record list;
      (** the merged typed trace of every node, in emission order —
          the stream {!Lbrm.Timeline.build} consumes *)
  digest : string;
      (** hex digest of the canonical counter/sample rendering — equal
          seeds must yield equal digests *)
}

val passed : outcome -> bool

val digest_of_trace : Lbrm_sim.Trace.t -> string
(** The digest {!outcome.digest} is computed with: counters and samples
    name-sorted, sample values in insertion order at full precision. *)

val primary_crash :
  ?seed:int ->
  ?h_min:float ->
  ?replication:Lbrm.Config.replication ->
  unit ->
  outcome
(** Crash the head of the replica set at t = 3 s with deposits in
    flight; it restarts at t = 10 s as a secondary of whichever logger
    the source promoted.  Expects exactly one fail-over under every
    strategy, records its latency, and records the promotion's
    re-deposit count as the ["window_of_loss"] sample (the retained
    packets the source re-deposited with the new leader). *)

val primary_crash_spill :
  ?seed:int ->
  ?h_min:float ->
  ?replication:Lbrm.Config.replication ->
  unit ->
  outcome
(** {!primary_crash} with a disk tier attached to every logger
    ([Scenario.standard ~archive:true]) and a [Keep_last 8] store, so
    most of the stream has spilled into (2 KiB, hence multiple) archive
    segments before the crash; a concurrent site partition, healed only
    after the promoted primary is stable, forces that site's deep
    catch-up through the disk tier.  On top of the
    exactly-one-fail-over contract it asserts the restart half of the
    tier: the rebuilt ex-primary reopens the surviving archive, its
    durability floor is at (or above) the recovered low-water mark
    without overstating — every sequence number at or below the floor
    is still servable from memory or disk — and retransmissions were
    actually served from disk (["archive.read"] on the trace). *)

val secondary_crash :
  ?seed:int ->
  ?h_min:float ->
  ?replication:Lbrm.Config.replication ->
  unit ->
  outcome
(** Crash one site's secondary logger under 15% tail loss; that site's
    receivers must re-run expanding-ring discovery and repair through an
    adopted remote logger.  Records per-receiver rediscovery latency. *)

val partition_heal :
  ?seed:int -> ?replication:Lbrm.Config.replication -> unit -> outcome
(** Sever one site's tail circuit for 4 s, then heal.  Receivers behind
    the cut must close the whole gap afterwards; fail-over must not
    trigger. *)

val random_chaos :
  ?seed:int ->
  ?crashes:int ->
  ?partitions:int ->
  ?replication:Lbrm.Config.replication ->
  unit ->
  outcome
(** Seeded random crash/restart and partition schedule over loggers and
    receivers ({!Lbrm_sim.Fault.random_schedule}); the soak re-runs this
    with equal seeds and compares digests. *)

val run_scripted :
  ?h_min:float -> ?replication:Lbrm.Config.replication -> unit -> outcome list
(** The four scripted scenarios, in order, at their default seeds.
    [replication] selects the logger-replication strategy
    ({!Lbrm.Config.replication}, default primary/secondary) and is
    suffixed onto scenario names for non-default strategies. *)
