(** Sans-IO interface between protocol state machines and runtimes.

    Every LBRM role (source, receiver, logger) is a state machine that
    does no IO of its own: each call pushes the {!action}s it decides on
    (send a packet, arm a timer, deliver a payload) into an {!out}
    buffer, and a runtime (simulated or real-socket) drains the buffer
    and executes them.  This keeps every protocol rule unit-testable
    without a network.

    {b Buffer ownership.}  Each machine owns one {!out} and returns it
    from every entry point ([start], [send], [handle_message],
    [handle_timer]); sub-machines ({!Pursuit}, {!Discovery}) push into
    the buffer of the machine that embeds them.  An entry point first
    calls {!begin_call}, which marks the buffer's current end: the
    call's actions are the ones from that mark to {!length}.  The buffer
    grows to the largest call's size and is reused, so a call allocates
    only the action blocks it pushes.

    {b Validity.}  The returned buffer holds the call's actions until
    they are drained (by the host, or by {!collect}), or until the next
    entry into the same machine, whichever comes first: outside a
    drain, {!begin_call} drops whatever an earlier call left behind.
    Perform a result before calling into the machine again; a result
    that is ignored is simply dropped by the next call.

    {b Nested calls.}  Draining can re-enter the machine being drained:
    an application callback run by a [Deliver] or [Notify] may call
    [Source.send] and perform its result.  While a drain is in progress
    ({!start_drain} .. {!end_drain}) the nested call appends after the
    actions still being drained and marks its own start.  Each drain
    runs from the mark it read when it began and truncates back to that
    mark when done, so every action of both calls runs exactly once:
    the outer call's in order, the nested call's at the point the
    callback performed them. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

(** Where to send a message. *)
type dest =
  | To_addr of address  (** unicast *)
  | To_group of { group : int; ttl : int option }
      (** multicast; [ttl] limits scope (site-local repairs) *)

(** Timer identities.  A role never has two live timers with the same
    key: [Set_timer] on a live key re-arms it. *)
type timer_key =
  | K_heartbeat  (** source: next heartbeat due *)
  | K_silence  (** receiver: MaxIT silence watchdog *)
  | K_nack_flush  (** receiver: batch missing seqs into one NACK *)
  | K_nack_escalate of seq  (** receiver: no repair yet, try next level *)
  | K_deposit of seq  (** source: primary has not acked the deposit *)
  | K_epoch_start  (** source: begin a new statistical-ack epoch *)
  | K_epoch_settle of int  (** source: stop waiting for Acker_replies *)
  | K_twait of seq  (** source: stat-ack decision point for a packet *)
  | K_probe of int  (** source: group-size probe round timeout *)
  | K_discovery of int  (** receiver: expanding-ring round timeout *)
  | K_remcast of seq  (** logger: request-counting window for a seq *)
  | K_replica_retry of seq  (** primary: unacked replica update *)
  | K_failover of int  (** source/receiver: fail-over protocol step *)
  | K_uplink_nack of seq  (** secondary logger: retry ask to parent *)
  | K_rchannel of seq * int
      (** source: next copy of a packet on the retransmission channel *)
  | K_app of string  (** application-defined *)

(** Out-of-band conditions surfaced to the embedding application. *)
type notice =
  | N_gap of seq list  (** receiver noticed newly missing packets *)
  | N_silence of float  (** nothing heard for MaxIT: elapsed seconds *)
  | N_recovered of { seq : seq; latency : float }
      (** a missing packet was repaired, [latency] seconds after the gap
          was first noticed *)
  | N_gave_up of seq  (** recovery abandoned after the retry budget *)
  | N_primary_suspected  (** deposits/repairs to primary keep timing out *)
  | N_new_primary of address  (** fail-over chose a new primary logger *)
  | N_epoch of { epoch : int; expected_acks : int; p_ack : float }
      (** a statistical-ack epoch became current *)
  | N_remulticast of seq  (** stat-ack decided to re-multicast a packet *)
  | N_estimate of float  (** group-size estimate update *)
  | N_discovery of address option  (** logger discovery finished *)
  | N_feedback of { seq : seq; missing : int; expected : int }
      (** statistical-ACK outcome for one data packet — congestion
          signal for an adaptive sender ({!Pacer}, §5 future work) *)

type action =
  | Send of dest * Lbrm_wire.Message.t
  | Set_timer of timer_key * float  (** arm/re-arm: delay in seconds *)
  | Cancel_timer of timer_key
  | Deliver of { seq : seq; payload : string; recovered : bool }
      (** hand a data payload to the application (receiver role) *)
  | Notify of notice
  | Join of int
      (** subscribe this endpoint to a multicast group (the §7
          retransmission channel joins on demand) *)
  | Leave of int  (** unsubscribe *)

val pp_action : Format.formatter -> action -> unit

val send : ?ttl:int -> group:int -> Lbrm_wire.Message.t -> action
(** Multicast send helper. *)

val send_to : address -> Lbrm_wire.Message.t -> action
(** Unicast send helper. *)

(** {2 Action buffers} *)

type out
(** A grow-only action array plus its length and the index where the
    latest call's actions start (its mark). *)

val out : unit -> out
(** A fresh, empty buffer. *)

val begin_call : out -> unit
(** Start a new call: mark the current end as its first action, after
    dropping any undrained actions if no drain is in progress. *)

val push : out -> action -> unit
(** Append one action.  Allocates only when the array must grow. *)

val length : out -> int
val get : out -> int -> action

val discard : out -> unit
(** Drop the latest call's actions, clearing their slots so the buffer
    keeps no dropped action alive. *)

val start_drain : out -> int
(** A host begins draining the latest call: returns the index of its
    first action, the index to drain from. *)

val end_drain : out -> int -> unit
(** [end_drain o from]: the drain that started at [from] is done; drop
    every action from [from] on, as {!discard} does. *)

val hoist : out -> at:int -> from:int -> unit
(** [hoist o ~at ~from] moves the actions pushed from index [from] on
    ahead of those in [\[at, from)], keeping the order within each
    part.  OCaml evaluates [a @ b] and [a :: b] right to left, so a
    handler that must run [b]'s side effects (and trace events) first
    but list [a]'s actions first runs [b], then [a], then hoists. *)

val collect : out -> action list
(** The latest call's actions as a list, removed from the buffer: the
    list view unit tests assert on. *)

val of_list : action list -> out
(** A fresh buffer holding the actions, as one call. *)
