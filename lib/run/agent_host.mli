(** The one interpreter of {!Lbrm.Io.action}s, shared by every runtime.

    A host owns the agents (keyed by protocol address), each agent's
    timer table, whose timers it arms, re-arms and cancels on the
    transport's {!Lbrm_sim.Engine} as [kind_timer] events (re-arming a
    live key is {!Lbrm_sim.Engine.reschedule}: the order cancel+schedule
    would give), the dispatch of messages and timer expiries into the
    agent's handlers,
    and ["sent.<kind>"]/["recv.<kind>"]/["app.delivered"]/
    ["app.recovered"] counting plus the accounting of every [Notify]
    (["loss.gaps"], ["recovery_latency"], ...) into a {!meter}.  Wires
    sit behind a {!transport}, and so does the clock, as the engine's:
    the simulator ({!Sim_runtime}, {!Mux}) jumps it to each event, real
    sockets ({!Udp_runtime}) move it with the monotonic clock.  Each
    agent carries the transport's endpoint (['e]: a node id, a socket),
    handed back on every send so the transport never looks it up. *)

type address = Lbrm_wire.Message.address

type 'e transport = {
  engine : Lbrm_sim.Engine.t;
      (** Timers run here; its clock is the agents' clock. *)
  unicast : 'e -> dst:address -> Lbrm_wire.Message.t -> int;
  multicast :
    'e -> group:int -> ttl:int option -> Lbrm_wire.Message.t -> int;
      (** Both return how many copies left, counted as ["sent.<kind>"]. *)
  join : group:int -> address -> unit;
  leave : group:int -> address -> unit;
}

type 'e t
type 'e agent

type meter
(** A registry plus its counter and sample handles, each interned on
    first use (so name-sorted listings gain no zero entries). *)

val meter : Lbrm_util.Metrics.t -> meter
val create : 'e transport -> 'e t

val add : 'e t -> address -> 'e -> meter -> Handlers.t -> 'e agent
(** At most one agent per address. *)

val endpoint : 'e agent -> 'e
val metrics : 'e agent -> Lbrm_util.Metrics.t

val crash : 'e t -> address -> unit
(** Cancel every pending timer of the agent; it stays installed. *)

val remove : 'e t -> address -> unit
(** {!crash} and forget the agent (restart is {!remove} then {!add}). *)

val receive :
  'e t ->
  'e agent ->
  now:float ->
  src:address ->
  Lbrm_wire.Message.t ->
  unit
(** Count ["recv.<kind>"], run [on_message] and drain its actions.
    [now] is the caller's clock reading, handed to the handler and to
    every [Deliver] and [Notify] of its actions. *)

val dispatch :
  'e t -> address -> now:float -> src:address -> Lbrm_wire.Message.t -> unit
(** {!receive} by address; no-op if no agent is installed there. *)

val perform : 'e t -> address -> Lbrm.Io.out -> unit
(** Drain a call's actions for the agent at the address, outside any
    dispatch: execute them in order, then drop them from the buffer
    (see {!Lbrm.Io} for nested calls).  With no agent installed the
    actions are dropped.  The engine's clock is read only for a
    [Deliver] or [Notify]; a timer expiry reads it once and hands that
    reading to the handler and to all its actions, as {!receive} does
    with its [now]. *)
