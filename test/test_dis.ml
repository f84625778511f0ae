(* DIS workload substrate: kinematics, dead reckoning, PDUs, STOW-97
   traffic arithmetic. *)

module Vec3 = Lbrm_dis.Vec3
module Entity = Lbrm_dis.Entity
module Dr = Lbrm_dis.Dead_reckoning
module Pdu = Lbrm_dis.Pdu
module Scenario = Lbrm_dis.Scenario
module Rng = Lbrm_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf eps = Alcotest.check (Alcotest.float eps)
let qtest = QCheck_alcotest.to_alcotest

(* ---- Vec3 ---- *)

let vec3_algebra () =
  let a = Vec3.make 1. 2. 3. and b = Vec3.make 4. 5. 6. in
  checkb "add" true (Vec3.equal (Vec3.add a b) (Vec3.make 5. 7. 9.));
  checkb "sub" true (Vec3.equal (Vec3.sub b a) (Vec3.make 3. 3. 3.));
  checkb "scale" true (Vec3.equal (Vec3.scale 2. a) (Vec3.make 2. 4. 6.));
  checkf 1e-9 "dot" 32. (Vec3.dot a b);
  checkf 1e-9 "norm" 5. (Vec3.norm (Vec3.make 3. 4. 0.));
  checkf 1e-9 "distance" 5. (Vec3.distance Vec3.zero (Vec3.make 3. 4. 0.))

(* ---- Entity ---- *)

let entity_kinds () =
  checkb "tank dynamic" true (Entity.is_dynamic Entity.Tank);
  checkb "bridge static" false (Entity.is_dynamic Entity.Bridge);
  (* kind_to_int / kind_of_int round trip *)
  List.iter
    (fun k ->
      Alcotest.check
        (Alcotest.option Alcotest.string)
        "roundtrip"
        (Some (Entity.kind_to_string k))
        (Option.map Entity.kind_to_string (Entity.kind_of_int (Entity.kind_to_int k))))
    [ Entity.Tank; Plane; Ship; Infantry; Bridge; Building; Tree; Fence; Rock ];
  checkb "bad kind" true (Entity.kind_of_int 99 = None)

(* ---- Dead reckoning ---- *)

let dr_extrapolation () =
  let s =
    Entity.make ~id:1 ~kind:Entity.Tank ~position:(Vec3.make 0. 0. 0.)
      ~velocity:(Vec3.make 10. 0. 0.) ~timestamp:0. ()
  in
  let p = Dr.extrapolate Dr.Constant_velocity s ~at:2. in
  checkb "moved 20m" true (Vec3.equal p.position (Vec3.make 20. 0. 0.));
  let q = Dr.extrapolate Dr.Static s ~at:2. in
  checkb "static stays" true (Vec3.equal q.position Vec3.zero)

let dr_emitter_suppresses_predictable_motion () =
  (* Truth follows constant velocity exactly: only the max_silence
     keep-alive fires. *)
  let init =
    Entity.make ~id:1 ~kind:Entity.Tank ~velocity:(Vec3.make 10. 0. 0.)
      ~timestamp:0. ()
  in
  let em = Dr.Emitter.create ~model:Dr.Constant_velocity ~threshold:1. init in
  let updates = ref 0 in
  for i = 1 to 40 do
    let t = float_of_int i *. 0.1 in
    let truth =
      { init with Entity.position = Vec3.make (10. *. t) 0. 0.; timestamp = t }
    in
    match Dr.Emitter.observe em ~truth with
    | `Send _ -> incr updates
    | `Quiet -> ()
  done;
  checki "no updates for predictable motion" 0 !updates

let dr_emitter_detects_maneuver () =
  let init =
    Entity.make ~id:1 ~kind:Entity.Tank ~velocity:(Vec3.make 10. 0. 0.)
      ~timestamp:0. ()
  in
  let em = Dr.Emitter.create ~model:Dr.Constant_velocity ~threshold:1. init in
  (* The tank turns: real position diverges from the prediction. *)
  let truth =
    {
      init with
      Entity.position = Vec3.make 5. 8. 0.;
      velocity = Vec3.make 0. 10. 0.;
      timestamp = 1.;
    }
  in
  (match Dr.Emitter.observe em ~truth with
  | `Send u -> checkb "update carries new velocity" true
      (Vec3.equal u.velocity (Vec3.make 0. 10. 0.))
  | `Quiet -> Alcotest.fail "maneuver missed");
  (* After the update the receiver model is aligned again. *)
  let truth2 =
    { truth with Entity.position = Vec3.make 5. 18. 0.; timestamp = 2. }
  in
  checkb "re-aligned" true (Dr.Emitter.observe em ~truth:truth2 = `Quiet)

let dr_emitter_appearance_change () =
  let init = Entity.make ~id:2 ~kind:Entity.Bridge ~timestamp:0. () in
  let em = Dr.Emitter.create ~model:Dr.Static ~threshold:1. init in
  let destroyed =
    Entity.with_appearance init ~appearance:Entity.Appearance.destroyed
      ~timestamp:10.
  in
  match Dr.Emitter.observe em ~truth:destroyed with
  | `Send u -> checki "destroyed" Entity.Appearance.destroyed u.appearance
  | `Quiet -> Alcotest.fail "appearance change missed"

let dr_emitter_max_silence () =
  let init = Entity.make ~id:3 ~kind:Entity.Rock ~timestamp:0. () in
  let em = Dr.Emitter.create ~model:Dr.Static ~threshold:1. ~max_silence:5. init in
  checkb "quiet early" true
    (Dr.Emitter.observe em ~truth:{ init with Entity.timestamp = 3. } = `Quiet);
  match Dr.Emitter.observe em ~truth:{ init with Entity.timestamp = 5.5 } with
  | `Send _ -> ()
  | `Quiet -> Alcotest.fail "silence keep-alive missed"

let dr_reduction_statistic () =
  (* A turning tank sampled at 10 Hz: dead reckoning should cut update
     traffic by an order of magnitude (the paper's §1 "dramatically
     reduces the bandwidth demands"). *)
  let init =
    Entity.make ~id:1 ~kind:Entity.Tank ~velocity:(Vec3.make 15. 0. 0.)
      ~timestamp:0. ()
  in
  let em = Dr.Emitter.create ~model:Dr.Constant_velocity ~threshold:5. init in
  for i = 1 to 600 do
    let t = float_of_int i *. 0.1 in
    (* Circular motion, radius ~150 m. *)
    let w = 0.1 in
    let truth =
      {
        init with
        Entity.position =
          Vec3.make (150. *. sin (w *. t)) (150. *. (1. -. cos (w *. t))) 0.;
        velocity =
          Vec3.make (15. *. cos (w *. t)) (15. *. sin (w *. t)) 0.;
        timestamp = t;
      }
    in
    ignore (Dr.Emitter.observe em ~truth)
  done;
  let sent = Dr.Emitter.updates_sent em in
  checkb
    (Printf.sprintf "600 samples -> %d updates (>=10x reduction)" sent)
    true
    (sent * 10 <= 600 && sent >= 2)

(* ---- PDU codec ---- *)

let pdu_roundtrip () =
  let s =
    Entity.make ~id:42 ~kind:Entity.Plane ~position:(Vec3.make 1. 2. 3.)
      ~velocity:(Vec3.make 4. 5. 6.) ~appearance:1 ~timestamp:7.5 ()
  in
  List.iter
    (fun p ->
      match Pdu.decode (Pdu.encode p) with
      | Ok p' -> checkb "roundtrip" true (Pdu.equal p p')
      | Error e -> Alcotest.failf "decode: %s" (Lbrm_wire.Codec.error_to_string e))
    [
      Pdu.Entity_state s;
      Pdu.Terrain_update { id = 9; appearance = 2; timestamp = 33.25 };
    ]

let pdu_rejects_junk () =
  checkb "junk rejected" true (Result.is_error (Pdu.decode "nonsense"));
  checkb "empty rejected" true (Result.is_error (Pdu.decode ""));
  (* Truncations of a valid PDU fail. *)
  let enc = Pdu.encode (Pdu.Terrain_update { id = 1; appearance = 1; timestamp = 2. }) in
  for len = 0 to String.length enc - 1 do
    checkb "prefix rejected" true
      (Result.is_error (Pdu.decode (String.sub enc 0 len)))
  done

let prop_pdu_roundtrip =
  QCheck.Test.make ~count:300 ~name:"pdu: terrain updates roundtrip"
    QCheck.(triple (int_range 0 100000) (int_range 0 10) (float_bound_inclusive 1e6))
    (fun (id, appearance, timestamp) ->
      let p = Pdu.Terrain_update { id; appearance; timestamp } in
      match Pdu.decode (Pdu.encode p) with
      | Ok p' -> Pdu.equal p p'
      | Error _ -> false)

(* ---- STOW-97 traffic arithmetic (§2.1.2) ---- *)

let stow97_traffic_claims () =
  let t = Scenario.traffic_model Scenario.stow97 in
  (* 100k dynamic at 1 pps. *)
  checkf 1. "dynamic pps" 100_000. t.dynamic_pps;
  (* Fixed heartbeat: ~4 per second per terrain entity -> ~400k pps.
     (479 heartbeats per 120 s gap = 3.99/s.) *)
  checkb
    (Printf.sprintf "fixed heartbeats %.0f ~ 400k" t.fixed_heartbeat_pps)
    true
    (Float.abs (t.fixed_heartbeat_pps -. 400_000.) < 2_000.);
  (* "heartbeats account for ... 4/5 of the simulation's 500,000 packets
     per second" *)
  let frac = Scenario.heartbeat_fraction t in
  checkb (Printf.sprintf "heartbeat fraction %.3f ~ 0.8" frac) true
    (Float.abs (frac -. 0.8) < 0.01);
  (* The variable scheme cuts heartbeat traffic by ~50x. *)
  let ratio = t.fixed_heartbeat_pps /. t.variable_heartbeat_pps in
  checkb (Printf.sprintf "variable cuts by %.1fx" ratio) true
    (ratio > 45. && ratio < 60.)

let population_shape () =
  let rng = Rng.create ~seed:12 in
  let pop = Scenario.population ~rng ~dynamics:50 ~terrain:30 in
  checki "dynamics" 50 (Array.length pop.dynamics);
  checki "terrain" 30 (Array.length pop.terrain);
  Array.iter
    (fun (e : Entity.state) ->
      checkb "dynamic kind" true (Entity.is_dynamic e.kind))
    pop.dynamics;
  Array.iter
    (fun (e : Entity.state) ->
      checkb "terrain kind" false (Entity.is_dynamic e.kind);
      checki "intact" Entity.Appearance.intact e.appearance)
    pop.terrain;
  (* Unique ids across the whole population. *)
  let ids =
    Array.to_list (Array.map (fun (e : Entity.state) -> e.id) pop.dynamics)
    @ Array.to_list (Array.map (fun (e : Entity.state) -> e.id) pop.terrain)
  in
  checki "ids unique" (List.length ids) (List.length (List.sort_uniq compare ids))

let terrain_events_flow () =
  let rng = Rng.create ~seed:13 in
  let pop = Scenario.population ~rng ~dynamics:0 ~terrain:20 in
  let t = ref 0. in
  let events = ref 0 in
  (* Mean inter-event time is 120/20 = 6 s; 100 draws span ~600 s. *)
  for _ = 1 to 100 do
    let at, e = Scenario.next_terrain_event ~rng Scenario.stow97 pop ~after:!t in
    checkb "time advances" true (at > !t);
    checkb "no longer intact" true (e.appearance <> Entity.Appearance.intact);
    t := at;
    incr events
  done;
  checki "all events" 100 !events;
  let mean = !t /. 100. in
  checkb (Printf.sprintf "mean interval %.1f ~ 6" mean) true
    (mean > 3. && mean < 12.)

let () =
  Alcotest.run "dis"
    [
      ("vec3", [ Alcotest.test_case "algebra" `Quick vec3_algebra ]);
      ("entity", [ Alcotest.test_case "kinds" `Quick entity_kinds ]);
      ( "dead_reckoning",
        [
          Alcotest.test_case "extrapolation" `Quick dr_extrapolation;
          Alcotest.test_case "suppresses predictable motion" `Quick
            dr_emitter_suppresses_predictable_motion;
          Alcotest.test_case "detects maneuvers" `Quick dr_emitter_detects_maneuver;
          Alcotest.test_case "appearance change" `Quick dr_emitter_appearance_change;
          Alcotest.test_case "max silence keep-alive" `Quick dr_emitter_max_silence;
          Alcotest.test_case "order-of-magnitude reduction" `Quick
            dr_reduction_statistic;
        ] );
      ( "pdu",
        [
          Alcotest.test_case "roundtrip" `Quick pdu_roundtrip;
          Alcotest.test_case "rejects junk" `Quick pdu_rejects_junk;
          qtest prop_pdu_roundtrip;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "STOW-97 traffic claims (2.1.2)" `Quick
            stow97_traffic_claims;
          Alcotest.test_case "population shape" `Quick population_shape;
          Alcotest.test_case "terrain events" `Quick terrain_events_flow;
        ] );
    ]
