(** Runs sans-IO LBRM agents over the discrete-event simulator.

    Protocol addresses are simulator node ids.  This is the simulator
    transport for {!Agent_host}, which executes each agent's
    {!Lbrm.Io.action}s: sends become {!Lbrm_sim.Net} transmissions from
    the agent's node, timers become [kind_timer] engine events keyed
    per-agent (re-arming a live key replaces it), deliveries and notices
    invoke the agent's callbacks.  Every agent counts into the shared
    {!Lbrm_util.Metrics} registry ("sent.<kind>", "recv.<kind>",
    "app.delivered", "loss.recovered", "recovery_latency", …). *)

type t

val create :
  net:Lbrm_wire.Message.t Lbrm_sim.Net.t ->
  trace:Lbrm_util.Metrics.t ->
  unit ->
  t
(** [trace] is the registry every agent counts into ({!metrics}).  The
    label keeps the registry's old name because the benchmark harness
    passes it. *)

val host :
  'm Lbrm_sim.Net.t ->
  wrap:(Lbrm_wire.Message.t -> 'm) ->
  Lbrm_sim.Topo.node_id Agent_host.t
(** The simulator transport over any message carrier: sends leave as
    [wrap msg].  {!Mux} runs one per flow. *)

val net : t -> Lbrm_wire.Message.t Lbrm_sim.Net.t
val engine : t -> Lbrm_sim.Engine.t
val metrics : t -> Lbrm_util.Metrics.t

val add_agent : t -> node:Lbrm_sim.Topo.node_id -> Handlers.t -> unit
(** Install an agent on a host node.  At most one agent per node. *)

val crash : t -> node:Lbrm_sim.Topo.node_id -> unit
(** Cancel every pending timer of the node's agent (a crashed process
    loses its soft state; with the node also marked down in {!Lbrm_sim.Topo}
    it goes completely quiet).  No-op if no agent is installed. *)

val replace_agent : t -> node:Lbrm_sim.Topo.node_id -> Handlers.t -> unit
(** Swap in a freshly created agent for the node — the restart half of a
    crash/restart cycle.  Outstanding timers of the old agent are
    cancelled; the old state machine is unreachable afterwards, so the
    restarted process genuinely rejoins from scratch. *)

val perform : t -> node:Lbrm_sim.Topo.node_id -> Lbrm.Io.out -> unit
(** Drain a call's actions on behalf of an agent — used to kick off machines
    ([Source.start], [Receiver.start]) or to inject application sends. *)

val inject : t -> node:Lbrm_sim.Topo.node_id -> src:Lbrm_wire.Message.address ->
  Lbrm_wire.Message.t -> unit
(** Hand a message to the node's agent as if it had arrived off the
    network from [src] (receive counters included), bypassing link
    transmission.  Population agents use this to feed their tracer
    receivers the loss outcomes the aggregate model sampled for them. *)

val join : t -> group:int -> node:Lbrm_sim.Topo.node_id -> unit
(** Subscribe a node to a multicast group. *)

val run : ?until:float -> t -> unit
(** Drive the simulation. *)

val now : t -> float
