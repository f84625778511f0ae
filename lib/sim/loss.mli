(** Packet-loss models for simulated links.

    Models are stateful where the physics demand it (Gilbert–Elliott
    tracks its channel state in virtual time), so each directed link owns
    its own instance — use {!copy}-free factories when building duplex
    links.  The paper's analysis (§2.1.1) uses the {!burst_windows}
    model: known intervals during which a link drops everything. *)

type t

val none : t
(** Lossless. *)

val bernoulli : float -> t
(** Independent loss with probability [p]. *)

val gilbert :
  ?loss_good:float ->
  ?loss_bad:float ->
  mean_good:float ->
  mean_bad:float ->
  unit ->
  t
(** Two-state continuous-time Gilbert–Elliott channel.  Sojourn times in
    the good/bad states are exponential with the given means (seconds);
    loss probabilities default to 0 (good) and 1 (bad). *)

val burst_windows : (float * float) list -> t
(** Deterministic outage: drop every packet whose send time falls in one
    of the given [(start, stop)] intervals. *)

val combine : t list -> t
(** Drop if any component model drops. *)

val drops : t -> rng:Lbrm_util.Rng.t -> now:float -> bool
(** Sample the model at virtual time [now] (monotone non-decreasing
    calls expected for stateful models). *)
