(* End-to-end LBRM behaviour over the simulated WAN. *)

module Scenario = Lbrm_run.Scenario
module Loss = Lbrm_sim.Loss
module Metrics = Lbrm_util.Metrics
module Topo = Lbrm_sim.Topo

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* A small config with statistical acking disabled keeps the basic
   delivery tests focused. *)
let plain_cfg = { Lbrm.Config.default with stat_ack_enabled = false }

let lossless_delivery () =
  let d =
    Scenario.standard ~cfg:plain_cfg ~sites:3 ~receivers_per_site:4 ()
  in
  Scenario.drive_periodic d ~interval:1.0 ~count:10 ();
  Scenario.run d ~until:30.;
  Array.iter
    (fun (r, _) ->
      checki "all 10 delivered" 10 (Lbrm.Receiver.delivered r);
      checki "none recovered" 0 (Lbrm.Receiver.recovered r))
    d.receivers;
  for seq = 1 to 10 do
    checkb "everywhere" true (Scenario.delivered_everywhere d seq)
  done

let random_loss_recovery () =
  (* 20 % loss on every site's inbound tail circuit: every packet must
     still reach every receiver, via logger recovery. *)
  let d =
    Scenario.standard ~cfg:plain_cfg ~seed:7 ~sites:5 ~receivers_per_site:4
      ~tail_loss:(fun _ -> Loss.bernoulli 0.2)
      ()
  in
  Scenario.drive_periodic d ~interval:0.5 ~count:40 ();
  Scenario.run d ~until:120.;
  checki "no receiver still missing anything" 0 (Scenario.total_missing d);
  for seq = 1 to 40 do
    checkb
      (Printf.sprintf "seq %d everywhere" seq)
      true
      (Scenario.delivered_everywhere d seq)
  done;
  checkb "some recovery happened" true
    (Metrics.count (Scenario.metrics d) "loss.recovered" > 0)

let burst_loss_recovery () =
  (* One site's tail goes completely dark for 3 s; heartbeats after the
     burst reveal the losses and the site recovers. *)
  let d =
    Scenario.standard ~cfg:plain_cfg ~seed:11 ~sites:4 ~receivers_per_site:3
      ~tail_loss:(fun site ->
        if site = 2 then Loss.burst_windows [ (5.0, 8.0) ] else Loss.none)
      ()
  in
  Scenario.drive_periodic d ~interval:1.0 ~count:20 ();
  Scenario.run d ~until:90.;
  checki "nothing missing at the end" 0 (Scenario.total_missing d);
  for seq = 1 to 20 do
    checkb "everywhere" true (Scenario.delivered_everywhere d seq)
  done

(* A 600-packet burst on one site's tail: the receivers there find one
   600-seq gap, more than one datagram slot's worth of NACK.  Every
   NACK goes out cut to fit the slot, and every packet is recovered. *)
let burst_600_recovers_everything () =
  let collector = Lbrm.Trace.Collector.create () in
  let count = 700 and interval = 0.005 in
  let d =
    Scenario.standard ~cfg:plain_cfg ~seed:5 ~sites:2 ~receivers_per_site:2
      ~sink:(Lbrm.Trace.Collector.sink collector)
      ~tail_loss:(fun site ->
        if site = 1 then Loss.burst_windows [ (0.5, 0.5 +. (600. *. interval)) ]
        else Loss.none)
      ()
  in
  Scenario.drive_periodic d ~interval ~count ();
  Scenario.run d ~until:60.;
  checki "nothing missing at the end" 0 (Scenario.total_missing d);
  for seq = 1 to count do
    checkb "everywhere" true (Scenario.delivered_everywhere d seq)
  done;
  let nacks =
    List.filter_map
      (fun (r : Lbrm.Trace.record) ->
        match r.ev with
        | Lbrm.Trace.Nack_sent { seqs; _ } | Lbrm.Trace.Uplink_nack { seqs; _ }
          ->
            Some (List.length seqs)
        | _ -> None)
      (Lbrm.Trace.Collector.records collector)
  in
  checkb "a gap wider than one NACK" true
    (List.exists (fun n -> n = Lbrm_wire.Codec.nack_seqs_max) nacks);
  checkb "every NACK fits a datagram slot" true
    (List.for_all (fun n -> n <= Lbrm_wire.Codec.nack_seqs_max) nacks)

let secondary_shields_primary () =
  (* §2.2.2: when a whole site loses a packet, the tail circuit carries
     one NACK (the secondary's), not one per receiver. *)
  let receivers_per_site = 20 in
  let d =
    Scenario.standard ~cfg:plain_cfg ~seed:3 ~sites:2
      ~receivers_per_site
      ~tail_loss:(fun site ->
        if site = 1 then Loss.burst_windows [ (0.9, 1.1) ] else Loss.none)
      ()
  in
  (* Count NACKs crossing site 1's outbound tail circuit. *)
  let tail_up = d.wan.sites.(1).Lbrm_sim.Builders.tail_up in
  let nacks_on_tail = ref 0 in
  Lbrm_sim.Net.on_link_transit
    (Lbrm_run.Sim_runtime.net d.runtime)
    (fun link msg ->
      match msg with
      | Lbrm_wire.Message.Nack _ when link == tail_up -> incr nacks_on_tail
      | _ -> ());
  Scenario.drive_periodic d ~interval:1.0 ~count:3 ();
  Scenario.run d ~until:30.;
  checki "no missing" 0 (Scenario.total_missing d);
  checkb
    (Printf.sprintf "tail NACKs (%d) << receivers (%d)" !nacks_on_tail
       receivers_per_site)
    true
    (!nacks_on_tail <= 3)

let statistical_ack_remulticast () =
  (* With stat-ack on and a packet lost on the source's outgoing tail
     (so everyone misses it), the source should re-multicast within
     ~1 RTT rather than waiting for per-site NACK service. *)
  let cfg =
    {
      Lbrm.Config.default with
      epoch_interval = 5.;
      t_wait_init = 0.3;
      k_ackers = 10;
    }
  in
  let d =
    Scenario.standard ~cfg ~seed:5 ~sites:10 ~receivers_per_site:2
      ~initial_estimate:10. ()
  in
  (* Lose everything leaving site 0 (the source site) for a moment that
     coincides with one data packet. *)
  Lbrm_sim.Topo.set_link_loss
    d.wan.sites.(0).Lbrm_sim.Builders.tail_up
    (Loss.burst_windows [ (9.95, 10.05) ]);
  Scenario.drive_periodic d ~interval:2.5 ~count:8 ();
  Scenario.run d ~until:60.;
  checki "no missing" 0 (Scenario.total_missing d);
  checkb "stat-ack re-multicast fired" true
    (Metrics.count (Scenario.metrics d) "statack.remulticast" >= 1)

let primary_failover () =
  (* Kill the primary logger mid-run: deposits time out, the source
     promotes the most up-to-date replica, and new packets keep being
     logged and recoverable. *)
  let cfg = { plain_cfg with deposit_timeout = 0.2; deposit_retry_limit = 2 } in
  let d =
    Scenario.standard ~cfg ~seed:13 ~sites:3 ~receivers_per_site:3
      ~replica_count:1 ()
  in
  (* Sever the primary at t = 5 s by cutting its LAN links. *)
  let engine = Lbrm_run.Sim_runtime.engine d.runtime in
  ignore
    (Lbrm_sim.Engine.schedule engine ~delay:5. (fun () ->
         let topo = d.wan.topo in
         let gw = d.wan.sites.(0).Lbrm_sim.Builders.gateway in
         (match Topo.find_link topo ~src:gw ~dst:d.primary_node with
         | Some l -> Topo.set_link_loss l (Loss.bernoulli 1.)
         | None -> ());
         match Topo.find_link topo ~src:d.primary_node ~dst:gw with
         | Some l -> Topo.set_link_loss l (Loss.bernoulli 1.)
         | None -> ()));
  Scenario.drive_periodic d ~interval:1.0 ~count:15 ();
  Scenario.run d ~until:60.;
  checkb "fail-over happened" true
    (Metrics.count (Scenario.metrics d) "failover.promoted" >= 1);
  let replica, _ = List.hd d.replicas in
  checkb "replica got promoted to primary" true (Lbrm.Logger.is_primary replica);
  checkb "source now deposits at the replica" true
    (Lbrm.Source.primary d.source = snd (List.hd d.replicas))

let silence_detection () =
  (* A receiver cut off from everything flags silence after MaxIT. *)
  let cfg = { plain_cfg with max_it = 2. } in
  let d =
    Scenario.standard ~cfg ~seed:17 ~sites:2 ~receivers_per_site:2 ()
  in
  Scenario.drive_periodic d ~interval:1.0 ~count:2 ();
  (* Cut site 1 off entirely from t = 3 on. *)
  Lbrm_sim.Topo.set_link_loss
    d.wan.sites.(1).Lbrm_sim.Builders.tail_down
    (Loss.burst_windows [ (3.0, 1e9) ]);
  Scenario.run d ~until:30.;
  checkb "silence noticed" true
    (Metrics.count (Scenario.metrics d) "loss.silence" >= 1)

let heartbeat_keeps_receivers_fresh () =
  (* After a single data packet, receivers keep hearing heartbeats and
     never flag silence. *)
  let cfg = { plain_cfg with max_it = 64. } in
  let d = Scenario.standard ~cfg ~sites:2 ~receivers_per_site:2 () in
  Scenario.drive_periodic d ~interval:1.0 ~count:1 ();
  Scenario.run d ~until:300.;
  checki "no silence" 0 (Metrics.count (Scenario.metrics d) "loss.silence");
  checkb "heartbeats flowed" true (Lbrm.Source.heartbeats_sent d.source > 5)


let discovery_finds_site_logger () =
  (* A receiver runs the expanding-ring search; the nearest responder is
     its own site's secondary logger (TTL 2 reaches it, the primary is
     6 links away). *)
  let d =
    Scenario.standard ~cfg:plain_cfg ~seed:23 ~sites:3 ~receivers_per_site:2 ()
  in
  let node = snd (List.hd (Scenario.site_receivers d ~site:2)) in
  let disc = Lbrm.Discovery.create plain_cfg in
  let out = Lbrm.Io.out () in
  let step f =
    Lbrm.Io.begin_call out;
    ignore (f out : bool);
    out
  in
  let dh =
    {
      Lbrm_run.Handlers.on_message =
        (fun ~now ~src msg ->
          step (fun out ->
              Lbrm.Discovery.handle_message disc out ~now ~src msg));
      on_timer =
        (fun ~now key ->
          step (fun out -> Lbrm.Discovery.handle_timer disc out ~now key));
      on_deliver = None;
      on_notice = None;
    }
  in
  (* Run discovery from a fresh host on site 2's LAN. *)
  let probe_host =
    let topo = d.wan.topo in
    let h = Topo.add_node topo Lbrm_sim.Topo.Host in
    let gw = d.wan.sites.(2).Lbrm_sim.Builders.gateway in
    let _ = Lbrm_sim.Topo.add_duplex topo ~bandwidth:10e6 ~delay:0.9e-3 gw h in
    h
  in
  ignore node;
  Lbrm_run.Sim_runtime.add_agent d.runtime ~node:probe_host dh;
  Lbrm_run.Sim_runtime.perform d.runtime ~node:probe_host
    (step (fun out ->
         Lbrm.Discovery.start disc out ~now:0.;
         true));
  Scenario.run d ~until:5.;
  let site_logger = snd d.secondaries.(2) in
  Alcotest.check (Alcotest.option Alcotest.int) "found own site logger"
    (Some site_logger) (Lbrm.Discovery.result disc)

let probing_estimates_population () =
  (* No initial estimate: the source runs the Bolot probing phase; the
     estimate should land near the real secondary-logger count. *)
  let sites = 40 in
  let cfg =
    { Lbrm.Config.default with t_wait_init = 0.2; epoch_interval = 10. }
  in
  let d = Scenario.standard ~cfg ~seed:31 ~sites ~receivers_per_site:1 () in
  Scenario.run d ~until:30.;
  let est = Lbrm.Stat_ack.n_sl (Lbrm.Source.stat d.source) in
  (* Loggers responding to probes: sites secondaries (the primary does
     not volunteer). *)
  checkb
    (Printf.sprintf "estimate %.1f within 50%% of %d" est sites)
    true
    (Float.abs (est -. float_of_int sites) /. float_of_int sites < 0.5);
  checkb "an epoch settled with designated ackers" true
    (Lbrm.Stat_ack.expected_acks (Lbrm.Source.stat d.source) > 0)

let gilbert_channel_recovery () =
  (* A bursty Gilbert-Elliott tail: everything still gets through. *)
  let d =
    Scenario.standard ~cfg:plain_cfg ~seed:37 ~sites:3 ~receivers_per_site:3
      ~tail_loss:(fun _ ->
        Loss.gilbert ~mean_good:5. ~mean_bad:0.5)
      ()
  in
  Scenario.drive_periodic d ~interval:0.5 ~count:40 ();
  Scenario.run d ~until:150.;
  checki "nothing missing" 0 (Scenario.total_missing d);
  for seq = 1 to 40 do
    checkb "everywhere" true (Scenario.delivered_everywhere d seq)
  done

let bounded_retention_gives_up_gracefully () =
  (* Loggers keep only the last 6 packets.  A receiver cut off for a
     long stretch recovers what the logs still hold and abandons the
     rest after its retry budget -- receiver-reliability in action. *)
  let cfg =
    {
      plain_cfg with
      retention = Lbrm.Log_store.Keep_last 6;
      nack_timeout = 0.2;
      nack_retry_limit = 1;
      max_it = 5.;
    }
  in
  let d =
    Scenario.standard ~cfg ~seed:41 ~sites:2 ~receivers_per_site:2
      ~tail_loss:(fun site ->
        if site = 1 then Loss.burst_windows [ (2.0, 17.0) ] else Loss.none)
      ()
  in
  Scenario.drive_periodic d ~interval:1.0 ~count:20 ();
  Scenario.run d ~until:120.;
  let metrics = Scenario.metrics d in
  checkb "some packets were unrecoverable" true
    (Metrics.count metrics "loss.gave_up" > 0);
  checkb "recent packets recovered" true
    (Metrics.count metrics "loss.recovered" > 0);
  (* Nothing is left pending: every gap was repaired or abandoned. *)
  checki "no pursuit left open" 0 (Scenario.total_missing d)

let hierarchy_end_to_end () =
  (* Three-level hierarchy delivers through regional losses. *)
  let d =
    Scenario.hierarchical ~cfg:plain_cfg ~seed:43 ~regions:3
      ~sites_per_region:3 ~receivers_per_site:2
      ~tail_loss:(fun site ->
        if site >= 3 && site < 6 then Loss.burst_windows [ (3.9, 4.1) ]
        else Loss.none)
      ()
  in
  Scenario.drive_periodic d ~interval:1.0 ~count:10 ();
  Scenario.run d ~until:60.;
  checki "regionals deployed" 3 (List.length d.regionals);
  checki "nothing missing" 0 (Scenario.total_missing d);
  for seq = 1 to 10 do
    checkb "everywhere" true (Scenario.delivered_everywhere d seq)
  done

let hierarchy_regional_restart () =
  (* Region 1's logger is down through a loss burst in its region.  On
     restart its rebuilder installs a fresh machine homed on the
     primary, and the region's receivers still recover every packet. *)
  let d =
    Scenario.hierarchical ~cfg:plain_cfg ~seed:43 ~regions:3
      ~sites_per_region:3 ~receivers_per_site:2
      ~tail_loss:(fun site ->
        if site >= 3 && site < 6 then Loss.burst_windows [ (2.9, 6.1) ]
        else Loss.none)
      ()
  in
  let old, node = List.nth d.regionals 1 in
  Scenario.schedule_faults d
    (Lbrm_sim.Fault.outage ~at:2.5 ~downtime:4.0 node);
  Scenario.drive_periodic d ~interval:1.0 ~count:10 ();
  Scenario.run d ~until:90.;
  let fresh, _ = List.find (fun (_, n) -> n = node) d.regionals in
  checkb "regional rebuilt" true (fresh != old);
  checki "nothing missing" 0 (Scenario.total_missing d);
  for seq = 1 to 10 do
    checkb "everywhere" true (Scenario.delivered_everywhere d seq)
  done

let piggyback_heartbeats_end_to_end () =
  (* With payload-carrying heartbeats, losses of small packets heal via
     the next heartbeat: zero NACKs. *)
  let cfg = { plain_cfg with heartbeat_payload_max = 256 } in
  let d =
    Scenario.standard ~cfg ~seed:47 ~sites:3 ~receivers_per_site:2
      ~tail_loss:(fun _ -> Loss.bernoulli 0.2)
      ()
  in
  Scenario.drive_periodic d ~interval:2.0 ~count:15 ~payload_size:64 ();
  Scenario.run d ~until:60.;
  checki "nothing missing" 0 (Scenario.total_missing d);
  checki "no NACKs needed" 0 (Metrics.count (Scenario.metrics d) "sent.nack")

let retransmission_channel () =
  (* 7 first bullet: receivers subscribe to a retransmission channel on
     loss instead of NACKing; the source re-multicasts every packet 3
     times there with exponential backoff. *)
  let cfg = { plain_cfg with rchannel_group = Some 9 } in
  let d =
    Scenario.standard ~cfg ~seed:59 ~sites:5 ~receivers_per_site:3
      ~tail_loss:(fun _ -> Loss.bernoulli 0.2)
      ()
  in
  Scenario.drive_periodic d ~interval:1.0 ~count:20 ();
  Scenario.run d ~until:90.;
  let metrics = Scenario.metrics d in
  checki "nothing missing" 0 (Scenario.total_missing d);
  let gaps = Metrics.count metrics "loss.gaps" in
  let nacks = Metrics.count metrics "sent.nack" in
  checkb "losses actually occurred" true (gaps > 10);
  checkb
    (Printf.sprintf "channel absorbed recovery (%d NACKs for %d gaps)" nacks
       gaps)
    true
    (nacks * 5 < gaps);
  (* Receivers left the channel once whole again. *)
  let channel_members =
    Lbrm_sim.Net.members (Lbrm_run.Sim_runtime.net d.runtime) ~group:9
  in
  checki "everyone unsubscribed at the end" 0 (List.length channel_members)

let estimate_tracks_churn () =
  (* Half the secondary loggers disappear mid-run: the EWMA refinement
     (2.3.3) pulls the population estimate down. *)
  let sites = 30 in
  let cfg =
    {
      Lbrm.Config.default with
      k_ackers = 10;
      t_wait_init = 0.2;
      epoch_interval = 2.;
      estimate_alpha = 0.25;
    }
  in
  let d =
    Scenario.standard ~cfg ~seed:53 ~sites ~receivers_per_site:1
      ~initial_estimate:(float_of_int sites) ()
  in
  (* Cut the tails of sites 15..29 from t = 10 on: their loggers stop
     hearing Acker_selects and data, so they stop acking. *)
  ignore
    (Lbrm_sim.Engine.schedule
       (Lbrm_run.Sim_runtime.engine d.runtime)
       ~delay:10.
       (fun () ->
         for site = 15 to 29 do
           Topo.set_link_loss d.wan.sites.(site).Lbrm_sim.Builders.tail_down
             (Loss.bernoulli 1.);
           Topo.set_link_loss d.wan.sites.(site).Lbrm_sim.Builders.tail_up
             (Loss.bernoulli 1.)
         done));
  Scenario.drive_periodic d ~interval:1.0 ~count:60 ();
  Scenario.run d ~until:70.;
  let est = Lbrm.Stat_ack.n_sl (Lbrm.Source.stat d.source) in
  checkb
    (Printf.sprintf "estimate %.1f dropped toward 15" est)
    true (est < 22.)

let () =
  Alcotest.run "integration"
    [
      ( "delivery",
        [
          Alcotest.test_case "lossless delivery" `Quick lossless_delivery;
          Alcotest.test_case "random tail loss recovered" `Quick
            random_loss_recovery;
          Alcotest.test_case "burst outage recovered" `Quick
            burst_loss_recovery;
          Alcotest.test_case "600-packet burst recovers everything" `Quick
            burst_600_recovers_everything;
        ] );
      ( "distributed-logging",
        [
          Alcotest.test_case "secondary shields the tail circuit" `Quick
            secondary_shields_primary;
        ] );
      ( "stat-ack",
        [
          Alcotest.test_case "widespread loss re-multicast" `Quick
            statistical_ack_remulticast;
        ] );
      ( "fail-over",
        [ Alcotest.test_case "primary fail-over" `Quick primary_failover ] );
      ( "freshness",
        [
          Alcotest.test_case "silence detection" `Quick silence_detection;
          Alcotest.test_case "heartbeats keep receivers fresh" `Quick
            heartbeat_keeps_receivers_fresh;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "expanding ring finds site logger" `Quick
            discovery_finds_site_logger;
        ] );
      ( "estimation",
        [
          Alcotest.test_case "probing estimates population" `Quick
            probing_estimates_population;
          Alcotest.test_case "estimate tracks churn" `Quick
            estimate_tracks_churn;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "gilbert channel recovery" `Quick
            gilbert_channel_recovery;
          Alcotest.test_case "bounded retention gives up gracefully" `Quick
            bounded_retention_gives_up_gracefully;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "3-level hierarchy end to end" `Quick
            hierarchy_end_to_end;
          Alcotest.test_case "3-level hierarchy regional restart" `Quick
            hierarchy_regional_restart;
          Alcotest.test_case "piggyback heartbeats end to end" `Quick
            piggyback_heartbeats_end_to_end;
          Alcotest.test_case "retransmission channel" `Quick
            retransmission_channel;
        ] );
    ]
