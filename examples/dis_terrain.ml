(* The paper's motivating scenario (§1): dynamic terrain in a
   distributed interactive simulation.

   A virtual bridge sits unchanged for minutes, then is destroyed
   mid-exercise.  Every tank within visual range must "see" the
   destruction within a fraction of a second — even the ones at a site
   whose tail circuit happens to be suffering a burst outage at that
   very moment.  A tank with stale information would try to drive over
   the bridge.

   Terrain updates ride LBRM as entity-state PDUs; we measure each
   receiver's staleness (event time -> delivery time) and check the
   outage site recovers via its secondary logger.

   Run with: dune exec examples/dis_terrain.exe *)

module Scenario = Lbrm_run.Scenario
module Dis = Lbrm_dis.Scenario
module Pdu = Lbrm_dis.Pdu
module Entity = Lbrm_dis.Entity
module Loss = Lbrm_sim.Loss
module Engine = Lbrm_sim.Engine
module Rng = Lbrm_util.Rng
module Stats = Lbrm_util.Stats

let () =
  Printf.printf
    "DIS dynamic terrain: 60 terrain entities, 4 sites, site 2 suffers a\n\
     3 s tail-circuit outage while the bridge is destroyed.\n\n";
  (* Delivery-time bookkeeping: entity event time per LBRM payload. *)
  let event_time : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let staleness = Stats.Sample.create () in
  let bridge_seen = ref 0 in
  let bridge_payload = ref "" in
  let on_deliver _node ~now ~seq:_ ~payload ~recovered:_ =
    (match Hashtbl.find_opt event_time payload with
    | Some at -> Stats.Sample.add staleness (now -. at)
    | None -> ());
    if payload = !bridge_payload then incr bridge_seen
  in
  let d =
    Scenario.standard ~seed:99 ~sites:4 ~receivers_per_site:5
      ~initial_estimate:4. ~on_deliver
      ~tail_loss:(fun site ->
        if site = 2 then Loss.burst_windows [ (59.0, 62.0) ] else Loss.none)
      ()
  in
  let engine = Lbrm_run.Sim_runtime.engine d.runtime in
  let rng = Rng.create ~seed:7 in
  let pop = Dis.population ~rng ~dynamics:0 ~terrain:60 in

  (* Poisson terrain changes, mean one per entity per 120 s. *)
  let send_update (e : Entity.state) =
    let payload =
      Pdu.encode
        (Pdu.Terrain_update
           { id = e.id; appearance = e.appearance; timestamp = e.timestamp })
    in
    Hashtbl.replace event_time payload (Engine.now engine);
    Scenario.send d payload;
    payload
  in
  let rec schedule_changes after =
    let at, e = Dis.next_terrain_event ~rng Dis.stow97 pop ~after in
    if at < 110. then
      ignore
        (Engine.at engine ~time:at (fun () ->
             ignore (send_update e);
             schedule_changes at))
  in
  schedule_changes 0.;

  (* The bridge: destroyed at t = 60.0, in the middle of site 2's
     outage. *)
  let bridge =
    Entity.make ~id:9999 ~kind:Entity.Bridge ~timestamp:0. ()
  in
  ignore
    (Engine.at engine ~time:60.0 (fun () ->
         let destroyed =
           Entity.with_appearance bridge
             ~appearance:Entity.Appearance.destroyed ~timestamp:60.0
         in
         Printf.printf "t=60.0s  *** bridge %d destroyed ***\n" destroyed.id;
         bridge_payload := send_update destroyed));

  Scenario.run d ~until:200.;

  let receivers = Array.length d.receivers in
  Printf.printf "\nreceivers that saw the bridge destroyed : %d / %d\n"
    !bridge_seen receivers;
  Printf.printf "terrain updates delivered               : %d\n"
    (Stats.Sample.count staleness);
  Printf.printf "staleness (event -> view update)        : mean %.0f ms, p99 %.0f ms, max %.2f s\n"
    (1e3 *. Stats.Sample.mean staleness)
    (1e3 *. Stats.Sample.percentile staleness 99.)
    (Stats.Sample.max staleness);
  Printf.printf "packets still missing anywhere          : %d\n"
    (Scenario.total_missing d);
  Printf.printf
    "\nNote: the p99 tail is the outage site — its tanks learned of the\n\
     destruction from the secondary logger right after connectivity\n\
     returned, bounded by the burst length (2.1.1), not by a fixed poll.\n";
  if !bridge_seen = receivers && Scenario.total_missing d = 0 then
    print_endline "OK: every tank sees the destroyed bridge."
  else begin
    print_endline "FAILED: stale tanks remain.";
    exit 1
  end
