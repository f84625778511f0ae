(** Peer registry with liveness tracking — the runtime's view of who is
    out there and whether they are responding.

    Replaces the static [groups]/[agents] Hashtbl registry: every remote
    endpoint (a UDP port) becomes a {e peer} with a liveness state
    driven by traffic observations and a wall-clock sweep:

    {v
      Connecting --rx--> Active --silence > suspect_after--> Suspect
          |                ^  ^                                 |
          |                |  '------------rx------------------'|
          |                '-----rx-----.      silence > dead_after
          '--silence > dead_after--> Dead <---------------------'
    v}

    Any received datagram makes a peer [Active] — including reviving a
    [Dead] one (LBRM peers are long-lived; a rebooted simulator host
    rejoins with the same port).  Group membership is an index over
    peers, and fan-out sends to every member whatever its state.
    Liveness is for observability only: an LBRM receiver that sees no
    loss sends nothing, so a healthy one ages to [Dead], and it must
    keep receiving data and heartbeats or it could not even detect a
    gap (the paper's receiver-reliable stance: senders never gate on
    receiver health).

    Every transition is reported through [on_transition] so the runtime
    can mirror it into the Trace/Metrics planes.

    Clock readings are coarse by design: the UDP runtime reads its clock
    once per receive batch and once per send call, and passes that one
    reading to {!note_recv}/{!note_sent} for every datagram of the batch
    or fan-out (a silence of seconds is measured against it). *)

type state = Connecting | Active | Suspect | Dead

val state_label : state -> string
(** ["connecting"], ["active"], ["suspect"], ["dead"]. *)

type t

val create :
  ?suspect_after:float ->
  ?dead_after:float ->
  ?on_transition:(port:int -> before:state -> after:state -> unit) ->
  unit ->
  t
(** [suspect_after] (default 3.0 s) and [dead_after] (default 30.0 s)
    are silence thresholds measured from the last datagram received
    from the peer.  Defaults are far above any protocol timer in the
    repo's scenarios, so liveness never interferes with short runs
    unless explicitly tightened. *)

val ensure : t -> port:int -> now:float -> unit
(** Register a peer if unknown (entering [Connecting]); no-op
    otherwise.  Called for every group join. *)

val note_recv : t -> port:int -> now:float -> unit
(** A datagram arrived from [port]: registers the peer if unknown and
    moves it to [Active] from any state.  For a known peer this
    allocates nothing. *)

val note_sent : t -> port:int -> now:float -> unit
(** A datagram was sent to [port] (bookkeeping only — sends never
    change liveness); registers the peer if unknown. *)

val state : t -> port:int -> state option

val last_recv : t -> port:int -> float option
(** When the peer last spoke ([ensure] time until it does). *)

val traffic : t -> port:int -> (int * int) option
(** (datagrams sent to, datagrams received from) the peer. *)

val tick : t -> now:float -> unit
(** Sweep: [Active]/[Connecting] peers silent past [suspect_after]
    become [Suspect]; any peer silent past [dead_after] becomes
    [Dead].  Cheap enough to call every loop iteration (internally
    rate-limited to a few sweeps per second). *)

val join : t -> group:int -> port:int -> now:float -> unit
(** Add the peer ({!ensure}d first) to a group's membership index. *)

val leave : t -> group:int -> port:int -> unit

val member : t -> group:int -> port:int -> bool

val members : t -> group:int -> int array
(** The ports of [group] in every state, ascending (deterministic,
    unlike a raw Hashtbl walk); [[||]] for an unknown group.  The
    runtime's multicast fan-out walks this array directly.  The array
    is replaced, never mutated, by {!join}/{!leave}: do not mutate it. *)

val group_size : t -> group:int -> int
(** Members in any state. *)

val counts : t -> int * int * int * int
(** (connecting, active, suspect, dead) across all known peers. *)

val known : t -> int
(** Total peers ever registered (and not forgotten). *)
