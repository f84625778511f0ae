module Rng = Lbrm_util.Rng

type params = {
  dynamic_entities : int;
  terrain_entities : int;
  dynamic_update_rate : float;
  terrain_change_interval : float;
  freshness : float;
}

let stow97 =
  {
    dynamic_entities = 100_000;
    terrain_entities = 100_000;
    dynamic_update_rate = 1.;
    terrain_change_interval = 120.;
    freshness = 0.25;
  }

type traffic = {
  dynamic_pps : float;
  terrain_data_pps : float;
  fixed_heartbeat_pps : float;
  variable_heartbeat_pps : float;
}

(* Per-entity heartbeats in a mean inter-update gap, computed exactly
   like Lbrm.Heartbeat.count_in_gap but kept dependency-free (lbrm_dis
   only needs arithmetic, not the protocol). *)
let count_in_gap ~fixed ~h_min ~h_max ~backoff ~dt =
  let eps = 1e-9 *. Float.max 1. dt in
  let rec loop at h n =
    let at = at +. h in
    if at > dt +. eps then n
    else
      let h' = if fixed then h else Float.min h_max (h *. backoff) in
      loop at h' (n + 1)
  in
  if dt <= 0. then 0 else loop 0. h_min 0

let traffic_model p =
  let h_max = 32. and backoff = 2. in
  let dynamic_pps = float_of_int p.dynamic_entities *. p.dynamic_update_rate in
  let terrain_data_pps =
    float_of_int p.terrain_entities /. p.terrain_change_interval
  in
  let per_entity policy =
    float_of_int
      (count_in_gap ~fixed:policy ~h_min:p.freshness ~h_max ~backoff
         ~dt:p.terrain_change_interval)
    /. p.terrain_change_interval
  in
  {
    dynamic_pps;
    terrain_data_pps;
    fixed_heartbeat_pps = float_of_int p.terrain_entities *. per_entity true;
    variable_heartbeat_pps =
      float_of_int p.terrain_entities *. per_entity false;
  }

let heartbeat_fraction t =
  let total = t.dynamic_pps +. t.terrain_data_pps +. t.fixed_heartbeat_pps in
  if total <= 0. then 0. else t.fixed_heartbeat_pps /. total

type population = {
  dynamics : Entity.state array;
  terrain : Entity.state array;
}

let speed_for = function
  | Entity.Tank -> 15.
  | Entity.Plane -> 250.
  | Entity.Ship -> 10.
  | Entity.Infantry -> 2.
  | Entity.Bridge | Entity.Building | Entity.Tree | Entity.Fence | Entity.Rock
    ->
      0.

let population ~rng ~dynamics ~terrain =
  let area = 50_000. in
  let place () =
    Vec3.make (Rng.float rng area) (Rng.float rng area) 0.
  in
  let dynamic_kinds = [| Entity.Tank; Plane; Ship; Infantry |] in
  let terrain_kinds = [| Entity.Bridge; Building; Tree; Fence; Rock |] in
  let mk_dynamic i =
    let kind = Rng.pick rng dynamic_kinds in
    let speed = speed_for kind in
    let heading = Rng.float rng (2. *. Float.pi) in
    Entity.make ~id:i ~kind ~position:(place ())
      ~velocity:(Vec3.make (speed *. cos heading) (speed *. sin heading) 0.)
      ~timestamp:0. ()
  in
  let mk_terrain i =
    Entity.make ~id:(dynamics + i) ~kind:(Rng.pick rng terrain_kinds)
      ~position:(place ()) ~appearance:Entity.Appearance.intact ~timestamp:0.
      ()
  in
  {
    dynamics = Array.init dynamics mk_dynamic;
    terrain = Array.init terrain mk_terrain;
  }

let next_terrain_event ~rng p pop ~after =
  assert (Array.length pop.terrain > 0);
  (* Aggregate change rate scales with the population: each entity
     changes every [terrain_change_interval] on average. *)
  let aggregate_mean =
    p.terrain_change_interval /. float_of_int (Array.length pop.terrain)
  in
  let at = after +. Rng.exponential rng ~mean:aggregate_mean in
  let idx = Rng.int rng (Array.length pop.terrain) in
  let e = pop.terrain.(idx) in
  let appearance =
    if e.appearance = Entity.Appearance.intact then
      if Rng.bernoulli rng ~p:0.5 then Entity.Appearance.damaged
      else Entity.Appearance.destroyed
    else Entity.Appearance.destroyed
  in
  let e' = Entity.with_appearance e ~appearance ~timestamp:at in
  pop.terrain.(idx) <- e';
  (at, e')
