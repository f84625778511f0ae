(** Many LBRM flows multiplexed onto the hosts of one simulated network.

    DIS runs thousands of fine-grained groups, "each containing a single
    data source" (§1), and the paper notes that "a single logging
    process may serve as the primary logger for one group and as the
    secondary logger for another" (§2.2.1, footnote 5).  This runtime
    makes that concrete: every datagram is an {!envelope} — a flow id in
    front of an ordinary message — and each host runs one sub-agent per
    flow, with timers and traffic namespaced by flow.  Each flow is one
    {!Agent_host} over the simulator transport ({!Sim_runtime.host}), so
    timers are [kind_timer] engine events and the shared
    {!Lbrm_util.Metrics} registry gets everything {!Sim_runtime}
    counts.

    Conventions: each flow's {!Lbrm.Config.t} must use multicast group
    ids unique to that flow (simplest: [group = 2 * flow],
    [discovery_group = 2 * flow + 1]); the flow id itself is the
    envelope tag. *)

type envelope = { flow : int; msg : Lbrm_wire.Message.t }

val wire_size : envelope -> int
(** Message wire size + 4 flow-id bytes. *)

type t
(** A multiplexed deployment over one simulated topology. *)

val create :
  engine:Lbrm_sim.Engine.t ->
  topo:Lbrm_sim.Topo.t ->
  metrics:Lbrm_util.Metrics.t ->
  t

val net : t -> envelope Lbrm_sim.Net.t
val engine : t -> Lbrm_sim.Engine.t
val metrics : t -> Lbrm_util.Metrics.t

val attach :
  t -> node:Lbrm_sim.Topo.node_id -> flow:int -> Handlers.t -> unit
(** Install a sub-agent for [flow] on a host.  A host may carry many
    flows; at most one sub-agent per (node, flow). *)

val join : t -> group:int -> node:Lbrm_sim.Topo.node_id -> unit

val perform :
  t -> node:Lbrm_sim.Topo.node_id -> flow:int -> Lbrm.Io.out -> unit
(** Drain a call's actions on behalf of a sub-agent (start/app sends). *)

val run : ?until:float -> t -> unit
val now : t -> float
