(** The one interpreter of {!Lbrm.Io.action}s, shared by every runtime.

    A host owns the agents (keyed by protocol address), each agent's
    timer table (re-arming a live key moves its timer: see [rearm]), the
    dispatch of messages and timer expiries into the agent's handlers,
    and ["sent.<kind>"]/["recv.<kind>"]/["app.delivered"]/
    ["app.recovered"] counting plus the accounting of every [Notify]
    (["loss.gaps"], ["recovery_latency"], ...) into a {!meter}.  Wires
    and clocks sit behind a {!transport}: the simulator ({!Sim_runtime},
    {!Mux}) and real sockets ({!Udp_runtime}) are just different
    transports.  Each
    agent carries the transport's endpoint (['e]: a node id, a socket),
    handed back on every send so the transport never looks it up. *)

type address = Lbrm_wire.Message.address

type ('h, 'e) transport = {
  now : unit -> float;
  unicast : 'e -> dst:address -> Lbrm_wire.Message.t -> int;
  multicast :
    'e -> group:int -> ttl:int option -> Lbrm_wire.Message.t -> int;
      (** Both return how many copies left, counted as ["sent.<kind>"]. *)
  arm : float -> (unit -> unit) -> 'h;
      (** Run the thunk after the delay unless ['h] is disarmed first. *)
  rearm : 'h -> float -> unit;
      (** [rearm h delay]: move the live timer [h] to [delay] from now,
          keeping its handle and thunk, exactly as if [h] were disarmed
          and the thunk armed anew (same firing order).  The host calls
          it for [Set_timer] on a key that already has a live timer;
          keys without one go through [arm]. *)
  disarm : 'h -> unit;
  join : group:int -> address -> unit;
  leave : group:int -> address -> unit;
}

type ('h, 'e) t
type ('h, 'e) agent

type meter
(** A registry plus its counter and sample handles, each interned on
    first use (so name-sorted listings gain no zero entries). *)

val meter : Lbrm_util.Metrics.t -> meter
val create : ('h, 'e) transport -> ('h, 'e) t

val add : ('h, 'e) t -> address -> 'e -> meter -> Handlers.t -> ('h, 'e) agent
(** At most one agent per address. *)

val endpoint : ('h, 'e) agent -> 'e
val metrics : ('h, 'e) agent -> Lbrm_util.Metrics.t

val crash : ('h, 'e) t -> address -> unit
(** Disarm every pending timer of the agent; it stays installed. *)

val remove : ('h, 'e) t -> address -> unit
(** {!crash} and forget the agent (restart is {!remove} then {!add}). *)

val receive :
  ('h, 'e) t -> ('h, 'e) agent -> src:address -> Lbrm_wire.Message.t -> unit
(** Count ["recv.<kind>"], run [on_message] and drain its actions. *)

val dispatch :
  ('h, 'e) t -> address -> src:address -> Lbrm_wire.Message.t -> unit
(** {!receive} by address; no-op if no agent is installed there. *)

val perform : ('h, 'e) t -> address -> Lbrm.Io.out -> unit
(** Drain a call's actions for the agent at the address, outside any
    dispatch: execute them in order, then drop them from the buffer
    (see {!Lbrm.Io} for nested calls).  With no agent installed the
    actions are dropped.  The clock is read only for a [Deliver] or
    [Notify]; {!receive} and timer expiries read it once and hand that
    reading to the handler and to all its actions. *)
