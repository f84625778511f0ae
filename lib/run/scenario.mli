(** Canonical simulated LBRM deployments and workload drivers.

    {!standard} builds the paper's reference scenario: one source, a
    primary logger (plus optional replicas) at the source's site, one
    secondary logger per site, and a population of receivers behind the
    tail circuits (§2.2.2's 50 sites × 20 receivers is
    [standard ~sites:50 ~receivers_per_site:20 ()]). *)

type node_id = Lbrm_sim.Topo.node_id

type population_spec = { members : int; tracers : int; lan_loss : float }
(** Aggregate per-site receiver population (see
    {!Lbrm_sim.Site_population}): [members] modeled receivers per site,
    [tracers] of them cross-checked by real {!Lbrm.Receiver} machines,
    [lan_loss] independent per-receiver LAN loss probability. *)

val population_spec :
  ?tracers:int -> ?lan_loss:float -> members:int -> unit -> population_spec
(** Defaults: 2 tracers, 0.5% LAN loss. *)

type deployment = {
  runtime : Sim_runtime.t;
  wan : Lbrm_sim.Builders.wan;
  cfg : Lbrm.Config.t;
  source : Lbrm.Source.t;
  source_node : node_id;
  mutable primary : Lbrm.Logger.t;
      (** the machine currently installed at [primary_node] — after a
          crash/restart cycle this is a fresh instance, and if fail-over
          moved the role it is no longer the group's primary *)
  primary_node : node_id;
  mutable replicas : (Lbrm.Logger.t * node_id) list;
  secondaries : (Lbrm.Logger.t * node_id) array;  (** index = site *)
  receivers : (Lbrm.Receiver.t * node_id) array;
  populations : (Population.t * node_id) array;
      (** aggregate site populations, index = site ([||] unless
          [site_population] was given) *)
  tracer_receivers : (Lbrm.Receiver.t * node_id) array;
      (** the populations' tracer cross-check receivers, site-major
          ([tracers] per site) *)
  mutable regionals : (Lbrm.Logger.t * node_id) list;
      (** mid-tier loggers (only from {!hierarchical}); a restarted
          regional's fresh machine replaces the crashed one here *)
  delivered : (node_id, (int, unit) Hashtbl.t) Hashtbl.t;
      (** per-receiver-node set of delivered sequence numbers *)
  rebuilders : (node_id, unit -> unit) Hashtbl.t;
      (** node → factory installing a fresh state machine at restart *)
  archives : (node_id, Lbrm.Archive.t) Hashtbl.t;
      (** log host → the archive handle its logger currently serves
          from (empty unless [standard ~archive:true]); a rebuilt
          logger's reopened handle replaces the crashed one here, while
          the backing in-memory fs persists across the crash *)
}

val standard :
  ?cfg:Lbrm.Config.t ->
  ?seed:int ->
  ?replica_count:int ->
  ?initial_estimate:float ->
  ?tail_loss:(int -> Lbrm_sim.Loss.t) ->
  ?on_deliver:
    (node_id ->
    now:float ->
    seq:Lbrm_util.Seqno.t ->
    payload:string ->
    recovered:bool ->
    unit) ->
  ?on_notice:(node_id -> now:float -> Lbrm.Io.notice -> unit) ->
  ?on_source_notice:(now:float -> Lbrm.Io.notice -> unit) ->
  ?logging:[ `Distributed | `Centralized ] ->
  ?sink:Lbrm.Trace.sink ->
  ?site_population:population_spec ->
  ?mcast_cache:int ->
  ?archive:bool ->
  sites:int ->
  receivers_per_site:int ->
  unit ->
  deployment
(** Host layout per site: host 0 is the site's secondary logger; at site
    0, hosts 1 and 2 are the source and the primary logger and hosts
    3…3+replicas are the primary's replicas; the remaining hosts are
    receivers.  [tail_loss site] installs a loss model on that site's
    inbound (WAN→site) tail circuit.  [initial_estimate] seeds the
    statistical-ack group-size estimate, skipping the probing phase.
    [logging] selects the paper's Figure 7 variants: [`Distributed]
    (default) deploys a secondary logger per site and two-level receiver
    hierarchies; [`Centralized] deploys no secondaries and every
    receiver NACKs the primary directly.  [sink] is shared by every
    state machine (including rebuilders' fresh instances), so its
    stream merges all nodes' typed trace events.

    [site_population] additionally deploys, at {e every} site, one
    {!Population} agent modeling [members] receivers in aggregate plus
    its tracer receivers (hosts appended after the individual
    receivers); populations join the data group, coexist with full
    per-receiver agents, and survive crash/restart via rebuilders
    (restart = fresh model, true rejoin).  Population-free deployments
    are bit-identical to before the option existed.  [mcast_cache] caps
    the network's pruned multicast-tree cache
    ({!Lbrm_sim.Net.create}).  All agents are started.

    [archive] attaches a disk tier (over a per-node persistent
    in-memory fs) to every logger — primary, replicas and site
    secondaries — sized by the config's [archive_*] knobs: store
    evictions spill to segments, retransmissions fall through
    memory → disk, and a crashed logger's rebuilder {e reopens} the
    surviving archive, recovering its history and persisted low-water
    mark.  Archive-free deployments are bit-identical to before. *)

val hierarchical :
  ?cfg:Lbrm.Config.t ->
  ?seed:int ->
  ?initial_estimate:float ->
  ?tail_loss:(int -> Lbrm_sim.Loss.t) ->
  ?on_deliver:
    (node_id ->
    now:float ->
    seq:Lbrm_util.Seqno.t ->
    payload:string ->
    recovered:bool ->
    unit) ->
  ?on_notice:(node_id -> now:float -> Lbrm.Io.notice -> unit) ->
  ?sink:Lbrm.Trace.sink ->
  regions:int ->
  sites_per_region:int ->
  receivers_per_site:int ->
  unit ->
  deployment
(** Three-level recovery hierarchy (the paper's §7 multi-level
    future-work item): receiver → site secondary → regional logger →
    primary.  Regions are consecutive runs of [sites_per_region] sites;
    region r's logger lives on host 3 of its first site, a slot
    reserved at every site.  No replicas.  It is {!standard}'s builder
    with one more tier, so its nodes restart the same way: a regional
    logger re-homes on the current primary, a site secondary on its
    regional. *)

(** {2 Fault injection}

    Crashing a node marks its host down in the topology (in-flight and
    future deliveries to it vanish, and route/tree caches covering it
    are invalidated) and cancels the agent's timers, so the process goes
    completely quiet.  Restarting marks the host up and runs the node's
    rebuilder: a {e fresh} state machine — empty log store, no pursuit
    state, new discovery — homed on whoever the source currently
    considers primary (a site secondary of a {!hierarchical} deployment
    on its regional logger).  This makes rejoin after a crash real
    rather than a resumption.  Both builders register a rebuilder for
    every node but the source, through the same per-role factories that
    built the deployment. *)

val schedule_faults :
  ?on_crash:(node_id -> unit) ->
  ?on_restart:(node_id -> unit) ->
  deployment ->
  Lbrm_sim.Fault.event list ->
  unit
(** Post a declarative fault schedule into the engine (see
    {!Lbrm_sim.Fault}).  [on_crash]/[on_restart] fire after the built-in
    crash/rebuild handling — hooks for harnesses that time fail-over or
    track delivery incarnations. *)

val site_receivers : deployment -> site:int -> (Lbrm.Receiver.t * node_id) list
(** Receivers whose host is at the given site. *)

val payload_of_size : int -> int -> string
(** [payload_of_size n i] is an [n]-byte payload identifying packet
    [i] — the generator the workload drivers use. *)

val send : deployment -> string -> unit
(** Immediately multicast one application payload from the source
    (usable only between {!Sim_runtime.run} slices or inside scheduled
    callbacks). *)

val drive_periodic :
  deployment -> interval:float -> count:int -> ?payload_size:int -> unit -> unit
(** Schedule [count] sends, one every [interval] seconds, starting one
    interval from now.  Payloads default to 128 bytes (Table 3's
    size). *)

val drive_poisson :
  deployment -> mean_interval:float -> until:float -> ?payload_size:int ->
  unit -> unit
(** Schedule sends with exponential inter-arrival times until virtual
    time [until] — the DIS terrain-update model (state changes roughly
    every two minutes, §2.1.2). *)

val run : deployment -> until:float -> unit
val metrics : deployment -> Lbrm_util.Metrics.t

val delivered_everywhere : deployment -> Lbrm_util.Seqno.t -> bool
(** Every receiver has the payload with that sequence number (checked
    via per-receiver delivery bookkeeping), every tracer receiver too,
    and every aggregate population reports it fully delivered. *)

val total_missing : deployment -> int
(** Sum of currently missing packets across receivers — individual,
    tracer, and aggregate (population gaps are multiplicity-weighted:
    a packet missed by [m] modeled receivers counts [m]). *)

val record_archive_stats : deployment -> unit
(** Fold disk-tier counters into the deployment's {!metrics}:
    ["archive.read"] (retransmissions the currently installed loggers
    served from disk) and the ["archive.rotations"] /
    ["archive.compactions"] / ["archive.segments"] segment-lifecycle
    family.  No-op counters stay absent, so archive-free scenarios'
    metrics are unchanged. *)
