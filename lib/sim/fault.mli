(** Deterministic fault injection: declarative, seeded schedules of
    host crashes, restarts and link outages applied through the
    calendar-queue engine.

    Applying an event flips {!Topo} up/down state — bumping the
    topology's state epoch so route tables and cached multicast trees
    rebuild without the failed element — and fires the caller's hook.
    What a crash means for the protocol agent on the node (timers
    cancelled, state machine rebuilt fresh on restart) is decided by
    the runtime via the [on_crash]/[on_restart] hooks; this module is
    purely about the network substrate, and stays sans-IO. *)

type action =
  | Crash of Topo.node_id  (** host down: deliveries dropped, handlers quiet *)
  | Restart of Topo.node_id  (** host back up (runtime rebuilds its agent) *)
  | Link_down of Topo.link
  | Link_up of Topo.link

type event = { at : float; what : action }

(** {2 Schedule constructors} *)

val crash : at:float -> Topo.node_id -> event
val link_down : at:float -> Topo.link -> event
val link_up : at:float -> Topo.link -> event

val outage : at:float -> downtime:float -> Topo.node_id -> event list
(** Crash at [at], restart [downtime] later. *)

val partition_site : Builders.wan -> site:int -> t0:float -> t1:float -> event list
(** Transient partition of a whole site: both directions of its tail
    circuit go down at [t0] and heal at [t1]. *)

val random_schedule :
  rng:Lbrm_util.Rng.t ->
  wan:Builders.wan ->
  hosts:Topo.node_id list ->
  sites:int list ->
  ?crashes:int ->
  ?partitions:int ->
  ?min_down:float ->
  ?max_down:float ->
  horizon:float ->
  unit ->
  event list
(** Seeded random schedule for chaos soaks: [crashes] crash/restart
    pairs over [hosts] and [partitions] transient partitions over
    [sites], each lasting between [min_down] and [max_down] seconds,
    all healing within [horizon].  Deterministic in [rng]. *)

val apply :
  engine:Engine.t ->
  topo:Topo.t ->
  ?on_crash:(Topo.node_id -> unit) ->
  ?on_restart:(Topo.node_id -> unit) ->
  event list ->
  unit
(** Post every event into the engine (events in the past fire
    immediately at [now]).  State flips happen before the hook runs, so
    an [on_restart] hook can already send through the node. *)
