(** Discrete-event simulation engine, and the timer queue of every
    runtime.

    A single-threaded event loop.  Callbacks scheduled for the same
    instant fire in FIFO order.  Under the simulator the clock is
    virtual and jumps to each event; a wall-clock runtime moves it with
    {!advance} and fires what is due with [run ~until:(now t)].  All
    randomness used by a simulation should derive from {!rng} (or
    splits of it) so that runs are reproducible from the seed. *)

type t

type timer
(** Handle onto a scheduled callback, for cancellation. *)

val create : ?seed:int -> unit -> t
(** Fresh engine at time 0.  Default seed is 42. *)

val now : t -> float
(** Current time, in seconds: virtual under the simulator, since the
    runtime's creation under a wall clock. *)

val rng : t -> Lbrm_util.Rng.t
(** The engine's root random stream. *)

(** {2 Event-kind accounting}

    Every queue entry carries a small integer {e kind}; the engine
    tallies, per kind, how many events fired and their total virtual
    sojourn (fire time − enqueue time).  Kinds are conventions of the
    embedding runtime; the engine only reserves [0] as the default.
    The LBRM runtimes use {!kind_packet} for network hops,
    {!kind_timer} for protocol timers and {!kind_app} for traffic
    drivers. *)

val max_kinds : int
(** Kinds are in [\[0, max_kinds)]. *)

val kind_default : int

val kind_packet : int
val kind_timer : int
val kind_app : int

val schedule : t -> delay:float -> (unit -> unit) -> timer
(** Run a callback [delay] seconds from now ([delay >= 0]). *)

val schedule_kind : t -> kind:int -> delay:float -> (unit -> unit) -> timer
(** {!schedule} with an explicit accounting kind. *)

val at : t -> time:float -> (unit -> unit) -> timer
(** Run a callback at an absolute virtual time (>= [now]). *)

val at_kind : t -> kind:int -> time:float -> (unit -> unit) -> timer
(** {!at} with an explicit accounting kind. *)

val post : t -> delay:float -> (unit -> unit) -> unit
(** Like {!schedule} but fire-and-forget: no cancellation handle is
    returned, and the queue entry is recycled through a pool, so the
    steady schedule-fire pattern allocates nothing.  The hot path for
    simulated packet hops and periodic ticks. *)

val post_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant of {!post}. *)

val post_kind : t -> kind:int -> delay:float -> (unit -> unit) -> unit
(** {!post} with an explicit accounting kind. *)

val post_at_kind : t -> kind:int -> time:float -> (unit -> unit) -> unit
(** {!post_at} with an explicit accounting kind. *)

val cancel : t -> timer -> unit
(** Cancel a pending timer; no-op if it already fired or was cancelled. *)

val reschedule : t -> timer -> delay:float -> unit
(** Move a pending timer to [delay] seconds from now ([delay >= 0]),
    keeping its callback and kind.  Observably this is {!cancel}
    followed by {!schedule_kind}: the fresh tie-break number is drawn at
    the same point, so every event keeps its [(time, seq)] key and the
    firing order, {!pending}, {!events_processed} and the per-kind
    counters are exactly what cancel+schedule would give.  The timer
    must be pending.  The timer is unlinked and re-inserted under its
    new key; this allocates nothing. *)

val is_pending : timer -> bool

val every : t -> period:float -> ?until:float -> (unit -> unit) -> unit
(** Periodic callback starting one [period] from now.  With [until],
    the last firing is at the largest tick time [<= until]; no event is
    left in the queue past the deadline. *)

val step : t -> bool
(** Execute the next event.  [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Drain the event queue; with [until], stop once virtual time would
    exceed it (the clock is left at [until], or where it was if that is
    later).  An event whose time the clock has already passed fires at
    the clock: the clock never moves back. *)

val advance : t -> float -> unit
(** Move the clock forward to the given time without firing anything
    (no-op if it is not later than {!now}).  Events it passes stay
    queued, in order, until the next {!step} or {!run}. *)

val next_time : t -> float
(** Time of the earliest queued event, [infinity] when none is.  Scans
    every bucket front: meant for a wall-clock loop's sleep, not for
    the simulator's hot path. *)

val pending : t -> int
(** Number of queued events. *)

val events_processed : t -> int
(** Total callbacks executed so far. *)

val kind_fired : t -> kind:int -> int
(** Events fired so far with this kind. *)

val kind_wait : t -> kind:int -> float
(** Total virtual seconds events of this kind spent queued. *)
