(** Aggregate statistical model of a site's receiver population.

    One instance stands in for [size] homogeneous receivers sharing a
    LAN behind one tail circuit (the paper's Figure 1 site).  The tail
    circuit stays a real simulated link — correlated loss is whatever
    {!Loss} model the topology installs there — while per-receiver LAN
    loss is sampled {e in aggregate}: each payload arriving at the site
    draws [Binomial(size, lan_loss)] misses instead of running [size]
    independent receiver machines.  Gap state is kept per {e distinct}
    missing sequence number with a multiplicity count, so memory and
    time are O(distinct gaps), never O(size).

    {b Tracers.}  [tracers] receivers are singled out as cross-checks:
    every sampling event also draws, by a without-replacement chain with
    exact hypergeometric marginals, which tracers are among the sampled
    misses.  An embedding feeds those outcomes to real
    {!Lbrm.Receiver} machines; because tracer outcomes and the
    aggregate count come from one joint sample, the tracers' miss
    totals must agree with the aggregate within binomial confidence
    bounds — {!agreement_z} is the running z-statistic, and a divergent
    value means the model (not the protocol) is wrong.

    The model is message-agnostic (sequence numbers in, multiplicities
    out); the protocol adaptation — NACK batching, suppression/backoff,
    heartbeat answering — lives in [Lbrm_run.Population].  All
    randomness comes from the supplied {!Lbrm_util.Rng} stream, so runs
    are deterministic per seed. *)

type t

val create :
  ?tracers:int -> size:int -> lan_loss:float -> rng:Lbrm_util.Rng.t ->
  unit -> t
(** [size >= 1] modeled receivers, [0 <= lan_loss < 1] independent
    per-receiver LAN loss, [0 <= tracers <= size] (default 2). *)

val size : t -> int
val tracers : t -> int

(** Result of offering one payload ([Data], payload-bearing heartbeat,
    or [Retrans]) to the population. *)
type outcome = {
  seq : int;
  first : bool;
      (** first time this payload reached the site (fresh delivery);
          [false] for repair rounds over an existing gap *)
  newly_delivered : int;  (** receivers that got the payload just now *)
  still_missing : int;  (** receivers still missing [seq] afterwards *)
  tracer_got : bool array;
      (** per tracer: received the payload with {e this} packet — the
          embedding must feed exactly these tracer machines *)
  opened : (int * int) list;
      (** older sequence numbers newly detected missing (the packet
          arrived ahead), with multiplicity — always the full [size] *)
}

val on_packet : t -> seq:int -> outcome
(** The site received a payload for [seq].  First arrivals draw the
    binomial miss count over the whole population; later arrivals are
    repair rounds drawn over the receivers still missing [seq] (each
    independently receives the repair with probability
    [1 - lan_loss]).  A payload nobody is missing is a no-op outcome
    ([newly_delivered = 0], [still_missing = 0]). *)

val on_heartbeat : t -> seq:int -> (int * int) list
(** A heartbeat told the site that [seq] exists: sequence numbers newly
    known missing (multiplicity [size] each), as for [opened]. *)

val abandon : t -> seq:int -> int
(** Give up recovering [seq]; returns the multiplicity written off. *)

val remaining : t -> seq:int -> int
(** Receivers still missing [seq]: its gap's multiplicity, 0 when no
    gap is live.  O(1). *)

val is_fully_delivered : t -> seq:int -> bool
(** [seq] reached the site and no receiver is still missing it. *)

val highest : t -> int
(** Highest sequence number known (0 before any traffic). *)

(** {2 Aggregate accounting}

    Every known sequence number owes [size] deliveries;
    [delivered + missing + gave_up = known * size] always holds. *)

val known : t -> int  (** distinct sequence numbers ever known *)

val delivered : t -> int  (** receiver-packet deliveries so far *)

val recovered : t -> int  (** deliveries that filled an earlier gap *)

val gave_up : t -> int  (** receiver-packet holes abandoned *)

val missing : t -> int  (** receivers-still-missing, summed over gaps *)

val distinct_gaps : t -> int  (** live gap records (the O(...) bound) *)

(** {2 Tracer cross-validation} *)

val tracer_fed : t -> int array
(** Per tracer: payloads handed over so far (fresh and repairs).  A real
    receiver machine fed exactly these packets must report the same
    delivery count — an exact, not statistical, check. *)

val agreement_z : t -> float
(** Z-statistic of the tracers' total miss events against their
    expectation under the realized aggregate draws (hypergeometric
    mean/variance accumulated per sampling event).  Near 0 when tracers
    and aggregate agree; 0 when no losses were sampled.  |z| beyond low
    single digits means the joint sampler is broken. *)
