(* Golden-trace generator: prints one line per scenario — name, the
   MD5 digest of the canonical JSONL rendering of its merged typed
   trace, and the record count.

   dune diffs the output against trace_digests.expected (runtest);
   after an intentional protocol change, regenerate with

     dune promote test/golden/trace_digests.expected

   A digest shift without a deliberate behaviour change means the
   protocol plane lost determinism — which is exactly what this golden
   file is here to catch. *)

module C = Lbrm_run.Chaos
module T = Lbrm.Trace

let line name (events : T.record list) =
  Printf.printf "%s %s records=%d\n" name (T.digest events)
    (List.length events)

(* The ledger a scenario must end on: every receiver, tracer and
   population member has every packet. *)
let nothing_missing name d =
  let n = Lbrm_run.Scenario.total_missing d in
  if n <> 0 then failwith (Printf.sprintf "%s: %d packets still missing" name n)

let lossy_events () =
  let collector = T.Collector.create () in
  let d =
    Lbrm_run.Scenario.standard ~seed:7 ~initial_estimate:50.
      ~tail_loss:(fun _ -> Lbrm_sim.Loss.bernoulli 0.05)
      ~sink:(T.Collector.sink collector)
      ~sites:50 ~receivers_per_site:1 ()
  in
  Lbrm_run.Scenario.drive_periodic d ~interval:0.1 ~count:40 ();
  Lbrm_run.Scenario.run d ~until:30.;
  T.Collector.records collector

(* test_population.ml's fault scenario (site partition, population
   crash/restart), traced, plus two faults at site 0: its secondary
   logger goes down, which makes the population replace it by
   expanding-ring rediscovery (the partition alone heals inside one
   level's retry budget), and later a partition longer than MaxIT fires
   the population's silence watchdog. *)
let population_faults_events () =
  let collector = T.Collector.create () in
  let d =
    Lbrm_run.Scenario.standard ~seed:23 ~initial_estimate:1000. ~sites:3
      ~receivers_per_site:1
      ~site_population:
        (Lbrm_run.Scenario.population_spec ~members:200 ~lan_loss:0.005 ())
      ~tail_loss:(fun _ -> Lbrm_sim.Loss.bernoulli 0.01)
      ~sink:(T.Collector.sink collector) ()
  in
  let pop_node = snd d.populations.(1) in
  Lbrm_run.Scenario.schedule_faults d
    (Lbrm_sim.Fault.partition_site d.wan ~site:2 ~t0:0.45 ~t1:1.4
    @ Lbrm_sim.Fault.outage ~at:0.9 ~downtime:0.8 pop_node
    @ Lbrm_sim.Fault.outage ~at:0.3 ~downtime:3.0 (snd d.secondaries.(0))
    @ Lbrm_sim.Fault.partition_site d.wan ~site:0 ~t0:4.0 ~t1:75.0);
  Lbrm_run.Scenario.drive_periodic d ~interval:0.1 ~count:30 ();
  Lbrm_run.Scenario.run d ~until:90.;
  let events = T.Collector.records collector in
  let pop_nodes = Array.to_list (Array.map snd d.populations) in
  let adopted (r : T.record) =
    match r.ev with
    | T.Rediscovery (T.D_adopted _) -> List.mem r.node pop_nodes
    | _ -> false
  in
  if not (List.exists adopted events) then
    failwith "population_faults: no population adopted a new nearest logger";
  nothing_missing "population_faults" d;
  events

(* The regional tier (3 regions x 3 sites x 2 receivers) under uniform
   tail loss: receivers NACK their site secondary, secondaries their
   regional logger, regionals the primary. *)
let hierarchical_events () =
  let collector = T.Collector.create () in
  let d =
    Lbrm_run.Scenario.hierarchical ~seed:29 ~regions:3 ~sites_per_region:3
      ~receivers_per_site:2
      ~tail_loss:(fun _ -> Lbrm_sim.Loss.bernoulli 0.05)
      ~sink:(T.Collector.sink collector) ()
  in
  Lbrm_run.Scenario.drive_periodic d ~interval:0.2 ~count:40 ();
  Lbrm_run.Scenario.run d ~until:40.;
  T.Collector.records collector

(* Every restartable role goes down once: each log host of a ring
   replica set with disk tiers, each site secondary, receiver,
   aggregate population and tracer receiver takes a 1.5 s outage, the
   outages staggered 0.25 s apart across the stream. *)
let restart_all_ring_events () =
  let collector = T.Collector.create () in
  let cfg =
    {
      Lbrm.Config.default with
      h_min = 0.25;
      h_max = 2.0;
      max_it = 4.0;
      replication = Lbrm.Config.R_ring;
      deposit_timeout = 0.3;
      deposit_backoff = 2.0;
      deposit_timeout_max = 0.6;
      nack_timeout = 0.6;
      nack_retry_limit = 8;
    }
  in
  let d =
    Lbrm_run.Scenario.standard ~cfg ~seed:19 ~replica_count:2 ~archive:true
      ~initial_estimate:100.
      ~site_population:(Lbrm_run.Scenario.population_spec ~members:50 ())
      ~tail_loss:(fun _ -> Lbrm_sim.Loss.bernoulli 0.02)
      ~sink:(T.Collector.sink collector) ~sites:3 ~receivers_per_site:2 ()
  in
  let module S = Lbrm_run.Scenario in
  let hosts a = Array.to_list (Array.map snd a) in
  let nodes =
    (d.S.primary_node :: List.map snd d.S.replicas)
    @ hosts d.S.secondaries @ hosts d.S.receivers @ hosts d.S.populations
    @ hosts d.S.tracer_receivers
  in
  S.schedule_faults d
    (List.concat
       (List.mapi
          (fun i node ->
            Lbrm_sim.Fault.outage
              ~at:(0.5 +. (0.25 *. float_of_int i))
              ~downtime:1.5 node)
          nodes));
  S.drive_periodic d ~interval:0.1 ~count:80 ();
  S.run d ~until:40.;
  nothing_missing "restart_all_ring" d;
  T.Collector.records collector

let () =
  line "primary_crash" (C.primary_crash ()).C.events;
  line "primary_crash_ring"
    (C.primary_crash ~replication:Lbrm.Config.R_ring ()).C.events;
  line "primary_crash_quorum"
    (C.primary_crash ~replication:Lbrm.Config.R_quorum ()).C.events;
  line "primary_crash_spill" (C.primary_crash_spill ()).C.events;
  line "secondary_crash" (C.secondary_crash ()).C.events;
  line "partition_heal" (C.partition_heal ()).C.events;
  line "lossy_50_sites" (lossy_events ());
  line "population_faults" (population_faults_events ());
  line "hierarchical" (hierarchical_events ());
  line "restart_all_ring" (restart_all_ring_events ())
