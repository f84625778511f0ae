(** STOW-97-style workload generation (§2.1.2).

    The paper's reference scenario: 100,000 dynamic entities averaging
    one update per second, and 100,000 aggregate terrain entities whose
    state changes about once every two minutes yet must reach viewers
    within a quarter second.  {!traffic_model} reproduces that
    arithmetic (the "4/5 of 500,000 packets per second are heartbeats"
    claim); {!population} builds a scaled synthetic population for
    simulation. *)

type params = {
  dynamic_entities : int;
  terrain_entities : int;
  dynamic_update_rate : float;  (** packets/s per dynamic entity *)
  terrain_change_interval : float;  (** mean s between terrain changes *)
  freshness : float;  (** terrain freshness requirement (h_min), s *)
}

val stow97 : params
(** The paper's numbers: 100k + 100k, 1 pkt/s, 120 s, 0.25 s. *)

type traffic = {
  dynamic_pps : float;  (** dynamic entity packets/s, whole exercise *)
  terrain_data_pps : float;  (** genuine terrain updates/s *)
  fixed_heartbeat_pps : float;  (** keep-alives under a fixed heartbeat *)
  variable_heartbeat_pps : float;  (** keep-alives under LBRM's scheme *)
}

val traffic_model : params -> traffic
(** Closed-form packet rates.  Heartbeat rates use
    {!Lbrm.Heartbeat}-identical arithmetic: per-entity heartbeats in a
    mean inter-update gap, times entity count, at h_max = 32 and
    backoff = 2. *)

val heartbeat_fraction : traffic -> float
(** Fraction of all exercise packets that are fixed-scheme heartbeats —
    the paper's "4/5 of the simulation's 500,000 packets per second". *)

type population = {
  dynamics : Entity.state array;
  terrain : Entity.state array;
}

val population :
  rng:Lbrm_util.Rng.t -> dynamics:int -> terrain:int -> population
(** Scaled-down population scattered uniformly over a 50 km square,
    dynamic entities with random headings at realistic speeds. *)

val next_terrain_event :
  rng:Lbrm_util.Rng.t -> params -> population -> after:float ->
  float * Entity.state
(** Sample the next terrain state change: (absolute time, new entity
    state) with exponential inter-change times scaled to the
    population. *)
