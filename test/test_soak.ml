(* Soak and failure-injection tests: randomized deployments, combined
   fault models, reordering, and long-horizon runs.  These assert the
   end-to-end invariant the whole protocol exists for: after enough
   quiet time, every receiver either holds every packet or has
   explicitly given up on it (bounded retention only). *)

module Scenario = Lbrm_run.Scenario
module Loss = Lbrm_sim.Loss
module Topo = Lbrm_sim.Topo
module Metrics = Lbrm_util.Metrics
module Builders = Lbrm_sim.Builders

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let qtest = QCheck_alcotest.to_alcotest

(* Random small deployments under random loss must always converge. *)
let prop_random_deployments_converge =
  QCheck.Test.make ~count:25 ~name:"soak: random deployments converge"
    QCheck.(
      quad (int_range 1 6) (* sites *)
        (int_range 1 4) (* receivers/site *)
        (int_range 0 30) (* loss percent *)
        (int_range 0 10000) (* seed *))
    (fun (sites, receivers_per_site, loss_pct, seed) ->
      let stat_ack = seed mod 2 = 0 in
      let cfg =
        { Lbrm.Config.default with stat_ack_enabled = stat_ack }
      in
      let d =
        Scenario.standard ~cfg ~seed ~sites ~receivers_per_site
          ~initial_estimate:(float_of_int sites)
          ~tail_loss:(fun _ ->
            Loss.bernoulli (float_of_int loss_pct /. 100.))
          ()
      in
      Scenario.drive_periodic d ~interval:0.5 ~count:15 ();
      Scenario.run d ~until:120.;
      Scenario.total_missing d = 0
      && Array.for_all
           (fun (r, _) -> Lbrm.Receiver.delivered r = 15)
           d.receivers)

let jitter_reordering_tolerated () =
  (* Heavy jitter on every tail circuit reorders packets in flight; the
     NACK batching delay should ride out most reordering, and everything
     must still be delivered exactly once. *)
  let cfg =
    { Lbrm.Config.default with stat_ack_enabled = false; nack_delay = 0.05 }
  in
  let d = Scenario.standard ~cfg ~seed:83 ~sites:4 ~receivers_per_site:3 () in
  Array.iter
    (fun site ->
      Topo.set_link_jitter site.Builders.tail_down 0.03
      (* mean 30 ms extra on a ~20 ms path: plenty of inversions *))
    d.wan.sites;
  Scenario.drive_periodic d ~interval:0.05 ~count:100 ();
  Scenario.run d ~until:60.;
  checki "nothing missing" 0 (Scenario.total_missing d);
  Array.iter
    (fun (r, _) ->
      checki "delivered exactly once each" 100 (Lbrm.Receiver.delivered r))
    d.receivers;
  (* Reordering inside the NACK delay must not spray NACKs: allow a few
     (deep reorder beyond 50 ms exists) but far fewer than the inversion
     count. *)
  let nacks = Metrics.count (Scenario.metrics d) "sent.nack" in
  checkb (Printf.sprintf "NACKs bounded (%d)" nacks) true (nacks < 100)

let combined_faults_soak () =
  (* Everything at once: bursty Gilbert tails, a mid-run primary
     failure with fail-over, statistical acking, and a site that goes
     dark and comes back. *)
  let cfg =
    {
      Lbrm.Config.default with
      deposit_timeout = 0.3;
      deposit_retry_limit = 2;
      epoch_interval = 5.;
      t_wait_init = 0.2;
    }
  in
  let d =
    Scenario.standard ~cfg ~seed:89 ~sites:6 ~receivers_per_site:3
      ~replica_count:1
      ~initial_estimate:6.
      ~tail_loss:(fun site ->
        if site = 4 then
          Loss.combine
            [
              Loss.gilbert ~mean_good:8. ~mean_bad:0.5;
              Loss.burst_windows [ (20., 35.) ];
            ]
        else Loss.gilbert ~mean_good:10. ~mean_bad:0.3)
      ()
  in
  (* Kill the primary's LAN at t = 25. *)
  let engine = Lbrm_run.Sim_runtime.engine d.runtime in
  ignore
    (Lbrm_sim.Engine.schedule engine ~delay:25. (fun () ->
         let gw = d.wan.sites.(0).Builders.gateway in
         (match Topo.find_link d.wan.topo ~src:gw ~dst:d.primary_node with
         | Some l -> Topo.set_link_loss l (Loss.bernoulli 1.)
         | None -> ());
         match Topo.find_link d.wan.topo ~src:d.primary_node ~dst:gw with
         | Some l -> Topo.set_link_loss l (Loss.bernoulli 1.)
         | None -> ()));
  Scenario.drive_periodic d ~interval:1. ~count:50 ();
  Scenario.run d ~until:240.;
  checkb "fail-over happened" true
    (Metrics.count (Scenario.metrics d) "failover.promoted" >= 1);
  checki "everything delivered everywhere despite the mayhem" 0
    (Scenario.total_missing d);
  Array.iter
    (fun (r, _) -> checki "all 50" 50 (Lbrm.Receiver.delivered r))
    d.receivers

let long_idle_stability () =
  (* A long idle stretch after one packet: heartbeats decay to h_max and
     stay there; no NACKs, no silence alarms, event count stays tiny
     (no timer leaks). *)
  let cfg = { Lbrm.Config.default with stat_ack_enabled = false } in
  let d = Scenario.standard ~cfg ~seed:97 ~sites:2 ~receivers_per_site:2 () in
  Scenario.drive_periodic d ~interval:1. ~count:1 ();
  Scenario.run d ~until:3600.;
  let metrics = Scenario.metrics d in
  checki "no NACKs over an idle hour" 0 (Metrics.count metrics "sent.nack");
  checki "no silence alarms" 0 (Metrics.count metrics "loss.silence");
  (* ~111 heartbeats/hour at h_max=32s, plus the warm-up ramp. *)
  let hb = Lbrm.Source.heartbeats_sent d.source in
  checkb (Printf.sprintf "heartbeats settled at 1/h_max (%d)" hb) true
    (hb > 100 && hb < 130)

let many_sites_scale () =
  (* A 100-site run exercises the multicast tree, the stat-ack epoch
     machinery and per-site recovery at a scale past the paper's 50-site
     projection; wall-clock stays comfortably in test range. *)
  let cfg =
    { Lbrm.Config.default with k_ackers = 20; epoch_interval = 10. }
  in
  let d =
    Scenario.standard ~cfg ~seed:101 ~sites:100 ~receivers_per_site:2
      ~initial_estimate:100.
      ~tail_loss:(fun site ->
        if site mod 7 = 3 then Loss.bernoulli 0.1 else Loss.none)
      ()
  in
  Scenario.drive_periodic d ~interval:1. ~count:20 ();
  Scenario.run d ~until:90.;
  checki "200 receivers all complete" 0 (Scenario.total_missing d);
  let acks = Metrics.count (Scenario.metrics d) "sent.stat_ack" in
  checkb
    (Printf.sprintf "ACK load stays ~k per packet (%d for 20 packets)" acks)
    true
    (acks < 20 * 40)

let chaos_random_soak () =
  (* A seeded random schedule of logger/receiver crashes and transient
     site partitions, applied through the engine: after quiescence every
     surviving receiver is gap-free, nothing was delivered twice within
     one incarnation, and no recovery was abandoned. *)
  let module Chaos = Lbrm_run.Chaos in
  let o = Chaos.random_chaos ~seed:7 () in
  checkb
    (Printf.sprintf "invariants hold (%s)"
       (String.concat "; " o.Chaos.violations))
    true (Chaos.passed o);
  checkb "packets actually flowed" true (o.Chaos.delivered > 0)

let chaos_same_seed_same_trace () =
  (* Faults ride the same deterministic engine as everything else: two
     runs with equal seeds must produce byte-identical metric traces
     (the digest canonicalizes every counter and every sample), and a
     different seed must not. *)
  let module Chaos = Lbrm_run.Chaos in
  let a = Chaos.random_chaos ~seed:5 () in
  let b = Chaos.random_chaos ~seed:5 () in
  Alcotest.(check string)
    "same seed, byte-identical metrics" a.Chaos.digest b.Chaos.digest;
  let c = Chaos.random_chaos ~seed:6 () in
  checkb "different seed, different trace" true
    (a.Chaos.digest <> c.Chaos.digest)

let chaos_same_seed_same_jsonl () =
  (* The typed trace stream inherits the same determinism guarantee:
     equal seeds produce byte-identical JSONL exports of the merged
     per-node event stream, down to float formatting. *)
  let module Chaos = Lbrm_run.Chaos in
  let jsonl o = Lbrm.Trace.jsonl_of_records o.Chaos.events in
  let a = Chaos.primary_crash ~seed:11 () in
  let b = Chaos.primary_crash ~seed:11 () in
  Alcotest.(check string) "same seed, byte-identical JSONL" (jsonl a) (jsonl b);
  checkb "trace is non-trivial" true (List.length a.Chaos.events > 100);
  (* primary_crash runs loss-free, so its typed stream is seed-invariant;
     the lossy secondary_crash scenario shows seed sensitivity. *)
  let c = Chaos.secondary_crash ~seed:11 () in
  let d = Chaos.secondary_crash ~seed:12 () in
  checkb "different seed, different JSONL" true (jsonl c <> jsonl d)

let () =
  Alcotest.run "soak"
    [
      ( "soak",
        [
          qtest prop_random_deployments_converge;
          Alcotest.test_case "jitter reordering tolerated" `Quick
            jitter_reordering_tolerated;
          Alcotest.test_case "combined faults" `Quick combined_faults_soak;
          Alcotest.test_case "long idle stability" `Quick long_idle_stability;
          Alcotest.test_case "100-site scale" `Quick many_sites_scale;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "seeded random fault schedule" `Quick
            chaos_random_soak;
          Alcotest.test_case "same seed, same metric trace" `Quick
            chaos_same_seed_same_trace;
          Alcotest.test_case "same seed, byte-identical trace JSONL" `Quick
            chaos_same_seed_same_jsonl;
        ] );
    ]
