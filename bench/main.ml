(* Benchmark and experiment harness: regenerates every table and figure
   of the paper's evaluation, plus the in-text quantitative claims.

   Run everything:        dune exec bench/main.exe
   One experiment:        dune exec bench/main.exe -- --only fig5
   List experiments:      dune exec bench/main.exe -- --list

   The experiment index (ids, workloads, module mapping) is in
   DESIGN.md; paper-vs-measured numbers are recorded in EXPERIMENTS.md. *)

module Heartbeat = Lbrm.Heartbeat
module Config = Lbrm.Config
module Scenario = Lbrm_run.Scenario
module Sim_runtime = Lbrm_run.Sim_runtime
module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Topo = Lbrm_sim.Topo
module Loss = Lbrm_sim.Loss
module Metrics = Lbrm_util.Metrics
module Builders = Lbrm_sim.Builders
module Message = Lbrm_wire.Message
module Rng = Lbrm_util.Rng
module Stats = Lbrm_util.Stats
module Srm = Lbrm_baselines.Srm
module Pos_ack = Lbrm_baselines.Pos_ack

(* Paper parameters (§2.1.2). *)
let h_min = 0.25
let h_max = 32.
let backoff = 2.

let section id title =
  Printf.printf "\n%s\n%s  %s\n%s\n"
    (String.make 72 '=') id title (String.make 72 '=')

let plain_cfg = { Config.default with stat_ack_enabled = false }

(* ------------------------------------------------------------------ *)
(* Figure 4: fixed vs variable heartbeat overhead rate vs dt           *)
(* ------------------------------------------------------------------ *)

(* Steady-state heartbeat rate measured by actually running the
   protocol over the simulator. *)
let simulated_heartbeat_rate ~policy ~dt =
  let cfg = { plain_cfg with heartbeat_policy = policy; max_it = 1e9 } in
  let count = Stdlib.max 5 (int_of_float (200. /. dt)) in
  let d = Scenario.standard ~cfg ~seed:1 ~sites:1 ~receivers_per_site:1 () in
  Scenario.drive_periodic d ~interval:dt ~count ();
  let span = dt *. float_of_int count in
  Scenario.run d ~until:span;
  float_of_int (Lbrm.Source.heartbeats_sent d.source) /. span

let fig4 () =
  section "fig4" "Heartbeat overhead rate vs data interval (Figure 4)";
  Printf.printf "h_min=%.2f h_max=%.0f backoff=%.0f; rates in packets/s\n\n"
    h_min h_max backoff;
  Printf.printf "%10s %14s %14s\n" "dt (s)" "fixed" "variable";
  List.iter
    (fun dt ->
      Printf.printf "%10.2f %14.4f %14.4f\n" dt
        (Heartbeat.overhead_rate ~policy:Fixed ~h_min ~h_max ~backoff ~dt)
        (Heartbeat.overhead_rate ~policy:Variable ~h_min ~h_max ~backoff ~dt))
    [ 0.1; 0.25; 0.5; 1.; 2.; 5.; 10.; 20.; 60.; 120.; 300.; 1000. ];
  Printf.printf
    "\nasymptotes: fixed -> 1/h_min = %.3f/s, variable -> 1/h_max = %.4f/s\n"
    (1. /. h_min) (1. /. h_max);
  Printf.printf "\nmodel vs simulated protocol run (spot checks):\n";
  Printf.printf "%10s %12s %12s %12s %12s\n" "dt" "fixed-model" "fixed-sim"
    "var-model" "var-sim";
  List.iter
    (fun dt ->
      Printf.printf "%10.1f %12.4f %12.4f %12.4f %12.4f\n" dt
        (Heartbeat.overhead_rate ~policy:Fixed ~h_min ~h_max ~backoff ~dt)
        (simulated_heartbeat_rate ~policy:Config.Fixed ~dt)
        (Heartbeat.overhead_rate ~policy:Variable ~h_min ~h_max ~backoff ~dt)
        (simulated_heartbeat_rate ~policy:Config.Variable ~dt))
    [ 1.; 10.; 120. ]

(* ------------------------------------------------------------------ *)
(* Figure 5: Overhead(Fixed)/Overhead(Variable) vs dt                  *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "fig5"
    "Overhead(Fixed)/Overhead(Variable) vs data interval (Figure 5)";
  Printf.printf "%10s %14s\n" "dt (s)" "ratio";
  List.iter
    (fun dt ->
      Printf.printf "%10.2f %14.2f\n" dt
        (Heartbeat.overhead_ratio ~h_min ~h_max ~backoff ~dt))
    [ 0.5; 1.; 2.; 5.; 10.; 20.; 60.; 120.; 300.; 1000. ];
  let marked = Heartbeat.overhead_ratio ~h_min ~h_max ~backoff ~dt:120. in
  Printf.printf
    "\nmarked point: dt = 120 s (DIS terrain update rate) -> %.1fx\n" marked;
  Printf.printf "paper: 53.4 (text) / 53.3 (Table 1)\n"

(* ------------------------------------------------------------------ *)
(* Table 1: overhead ratio vs backoff                                  *)
(* ------------------------------------------------------------------ *)

let tab1 () =
  section "tab1" "Fixed/Variable overhead ratio vs backoff (Table 1)";
  Printf.printf "dt = 120 s, h_min = 0.25 s, h_max = 32 s\n\n";
  Printf.printf "%10s %12s %12s\n" "backoff" "measured" "paper";
  List.iter2
    (fun b paper ->
      Printf.printf "%10.1f %12.1f %12.1f\n" b
        (Heartbeat.overhead_ratio ~h_min ~h_max ~backoff:b ~dt:120.)
        paper)
    [ 1.5; 2.0; 2.5; 3.0; 3.5; 4.0 ]
    [ 34.4; 53.3; 65.8; 74.8; 81.7; 87.3 ];
  print_endline
    "\nnote: the paper's counting convention for fractional heartbeats is\n\
     unstated; our discrete schedule matches its backoff-2.0 entry exactly\n\
     and reproduces the monotone shape (see EXPERIMENTS.md)."

(* ------------------------------------------------------------------ *)
(* Table 2: accuracy of the N_sl estimate vs probe count               *)
(* ------------------------------------------------------------------ *)

let tab2 () =
  section "tab2" "N_sl estimation accuracy vs probe count (Table 2)";
  let n = 500 and p = 0.04 in
  let trials = 5000 in
  let rng = Rng.create ~seed:7 in
  Printf.printf
    "N = %d secondary loggers, p_ack = %.2f, %d Monte-Carlo trials\n\n" n p
    trials;
  Printf.printf "%8s %16s %16s %10s\n" "probes" "formula sd" "monte-carlo sd"
    "ratio";
  let sigma1 = Lbrm.Group_estimate.stddev_single ~n:(float_of_int n) ~p in
  for probes = 1 to 5 do
    let s = Stats.create () in
    for _ = 1 to trials do
      let est = ref 0. in
      for _ = 1 to probes do
        let replies = ref 0 in
        for _ = 1 to n do
          if Rng.bernoulli rng ~p then incr replies
        done;
        est := !est +. (float_of_int !replies /. p)
      done;
      Stats.add s (!est /. float_of_int probes)
    done;
    let formula =
      Lbrm.Group_estimate.stddev_after ~n:(float_of_int n) ~p ~probes
    in
    Printf.printf "%8d %16.1f %16.1f %10.3f\n" probes formula (Stats.stddev s)
      (Stats.stddev s /. formula)
  done;
  Printf.printf
    "\npaper: sd(n probes) = sigma_1/sqrt(n); sigma_1 = %.1f here\n" sigma1

(* ------------------------------------------------------------------ *)
(* Table 3: logging-server response time (micro-benchmarks)           *)
(* ------------------------------------------------------------------ *)

let tab3 () =
  section "tab3" "Secondary logging server response time (Table 3)";
  (* Each micro-benchmark runs [ops] steps through Bench_common.run
     (fastest of 3 runs on the monotonic clock); ns/op is that run's
     elapsed time over [ops]. *)
  let suite = Bench_common.suite "tab3" and ops = 100_000 in
  let bench name step =
    let r =
      Bench_common.run suite ~name (fun () ->
          for _ = 1 to ops do
            step ()
          done;
          (ops, []))
    in
    (name, r.Bench_common.elapsed /. float_of_int ops *. 1e9)
  in
  (* A logger pre-loaded with 128-byte packets, serving NACKs. *)
  let logger =
    let l =
      Lbrm.Logger.create plain_cfg ~self:5 ~source:1 ~parent:2
        ~rng:(Rng.create ~seed:1) ()
    in
    let payload = Lbrm_wire.Payload.of_string (String.make 128 'x') in
    for seq = 1 to 1024 do
      ignore
        (Lbrm.Logger.handle_message l ~now:0. ~src:1
           (Message.Data { seq; epoch = 0; payload }))
    done;
    l
  in
  let seq = ref 0 in
  let data_msg =
    Message.Data
      {
        seq = 7;
        epoch = 1;
        payload = Lbrm_wire.Payload.of_string (String.make 128 'x');
      }
  in
  let encoded = Result.get_ok (Lbrm_wire.Codec.encode data_msg) in
  let receiver =
    Lbrm.Receiver.create plain_cfg ~self:9 ~source:1 ~loggers:[ 5 ]
  in
  let rseq = ref 0 in
  let hb = Heartbeat.create ~policy:Variable ~h_min ~h_max ~backoff in
  let results =
    List.map
      (fun (name, step) -> bench name step)
      [
        ( "serve_nack_128B",
          fun () ->
            seq := (!seq mod 1024) + 1;
            ignore
              (Lbrm.Logger.handle_message logger ~now:1. ~src:10
                 (Message.Nack { seqs = [ !seq ] })) );
        ( "codec_encode_data_128B",
          fun () -> ignore (Lbrm_wire.Codec.encode data_msg) );
        ( "codec_decode_data_128B",
          fun () -> ignore (Lbrm_wire.Codec.decode encoded) );
        ( "receiver_data_in_order",
          fun () ->
            incr rseq;
            ignore
              (Lbrm.Receiver.handle_message receiver ~now:1. ~src:1
                 (Message.Data
                    {
                      seq = !rseq;
                      epoch = 0;
                      payload = Lbrm_wire.Payload.empty;
                    })) );
        ( "heartbeat_scheduler_step",
          fun () ->
            Heartbeat.on_heartbeat hb;
            if Heartbeat.interval hb >= h_max then Heartbeat.on_data hb );
      ]
  in
  let ns name = List.assoc name results in
  Printf.printf "\n%-28s %12s\n" "micro-benchmark" "ns/op";
  List.iter (fun (name, v) -> Printf.printf "%-28s %12.0f\n" name v) results;
  (* The paper's breakdown, reproduced structurally: server processing is
     our measured request service; Ethernet transmission is the modeled
     10 Mbit/s serialization of the request + 128-byte response. *)
  let serve_us = ns "serve_nack_128B" /. 1e3 in
  let request_bytes = Message.wire_size (Message.Nack { seqs = [ 1 ] }) in
  let response_bytes = Message.wire_size data_msg in
  let ether_us =
    float_of_int (8 * (request_bytes + response_bytes)) /. 10e6 *. 1e6
  in
  Printf.printf "\n%-36s %10s %10s\n" "operation (Table 3 layout)" "ours (us)"
    "paper (us)";
  Printf.printf "%-36s %10.2f %10.0f\n" "Server request processing" serve_us
    102.;
  Printf.printf "%-36s %10.2f %10.0f\n" "Ethernet transmission (10 Mbit)"
    ether_us 390.;
  Printf.printf "%-36s %10s %10.0f\n" "Interrupts/context switch (1995 OS)"
    "n/a" 1090.;
  Printf.printf "%-36s %10.2f %10.0f\n" "Total" (serve_us +. ether_us) 1582.;
  let rate = 1e9 /. ns "serve_nack_128B" in
  Printf.printf
    "\nmax request service rate: %.0f req/s (paper: 1587 req/s on a 1995\n\
     RS/6000; the structural claim — server processing is small against\n\
     the 250 ms loss-detection time — holds by 3+ orders of magnitude)\n"
    rate

(* ------------------------------------------------------------------ *)
(* e_nack — distributed logging cuts tail-circuit NACKs 20 -> 1        *)
(* ------------------------------------------------------------------ *)

let nack_run ~logging =
  let cfg = plain_cfg in
  let lossy_site = 3 in
  let d =
    Scenario.standard ~cfg ~seed:11 ~sites:50 ~receivers_per_site:20 ~logging
      ~tail_loss:(fun site ->
        if site = lossy_site then Loss.burst_windows [ (4.95, 5.05) ]
        else Loss.none)
      ()
  in
  let tail_up = d.wan.sites.(lossy_site).Builders.tail_up in
  let nacks_on_tail = ref 0 in
  let nacks_at_primary = ref 0 in
  let gw0 = d.wan.sites.(0).Builders.gateway in
  let primary_link = Topo.find_link d.wan.topo ~src:gw0 ~dst:d.primary_node in
  Net.on_link_transit (Sim_runtime.net d.runtime) (fun link msg ->
      match msg with
      | Message.Nack _ -> (
          if link == tail_up then incr nacks_on_tail;
          match primary_link with
          | Some pl when link == pl -> incr nacks_at_primary
          | _ -> ())
      | _ -> ());
  Scenario.drive_periodic d ~interval:1. ~count:10 ();
  Scenario.run d ~until:60.;
  (!nacks_on_tail, !nacks_at_primary, Scenario.total_missing d)

let e_nack () =
  section "e_nack"
    "Distributed logging cuts tail-circuit NACKs (2.2.2: 20 -> 1)";
  Printf.printf
    "50 sites x 20 receivers; one packet lost on one site's inbound tail.\n\n";
  Printf.printf "%-14s %26s %22s %10s\n" "logging" "NACKs on lossy site tail"
    "NACKs into primary" "missing";
  let ct, cp, cm = nack_run ~logging:`Centralized in
  Printf.printf "%-14s %26d %22d %10d\n" "centralized" ct cp cm;
  let dt, dp, dm = nack_run ~logging:`Distributed in
  Printf.printf "%-14s %26d %22d %10d\n" "distributed" dt dp dm;
  ignore (cp, dp);
  Printf.printf
    "\npaper: 20 NACKs cross the tail under centralized recovery, 1 under\n\
     distributed logging (Figure 7).  Measured: %d -> %d.\n" ct dt

(* ------------------------------------------------------------------ *)
(* e_latency — local recovery is an order of magnitude faster          *)
(* ------------------------------------------------------------------ *)

let latency_run ~logging =
  let cfg = { plain_cfg with nack_delay = 0.001 } in
  let d =
    Scenario.standard ~cfg ~seed:13 ~sites:2 ~receivers_per_site:5 ~logging ()
  in
  (* One receiver at site 1 loses every third data packet: short outage
     windows synchronized with packet arrival (~40 ms after each send),
     so the original is lost but the later repair path is clean — the
     transient, isolated losses the paper's latency claim is about. *)
  let victim = snd (List.hd (Scenario.site_receivers d ~site:1)) in
  let gw = d.wan.sites.(1).Builders.gateway in
  let windows =
    List.filter_map
      (fun i ->
        if i mod 3 = 0 then
          let t = 0.5 *. float_of_int i in
          Some (t +. 0.035, t +. 0.045)
        else None)
      (List.init 60 (fun i -> i + 1))
  in
  (match Topo.find_link d.wan.topo ~src:gw ~dst:victim with
  | Some l -> Topo.set_link_loss l (Loss.burst_windows windows)
  | None -> ());
  Scenario.drive_periodic d ~interval:0.5 ~count:60 ();
  Scenario.run d ~until:120.;
  let sample = Metrics.sample (Scenario.metrics d) "recovery_latency" in
  ( Stats.Sample.median sample,
    Stats.Sample.percentile sample 99.,
    Stats.Sample.count sample,
    Scenario.total_missing d )

let e_latency () =
  section "e_latency" "Recovery latency: site logger vs remote primary (2.2.2)";
  Printf.printf
    "intra-site RTT ~3.6 ms, cross-WAN RTT ~80 ms (the paper's ping\n\
     numbers); one receiver loses every third data packet to transient\n\
     outages on its LAN drop.\n\n";
  Printf.printf "%-14s %14s %14s %10s %8s\n" "logging" "median (ms)"
    "p99 (ms)" "repairs" "missing";
  let dm, dp, dc, dmiss = latency_run ~logging:`Distributed in
  Printf.printf "%-14s %14.1f %14.1f %10d %8d\n" "distributed" (1e3 *. dm)
    (1e3 *. dp) dc dmiss;
  let cm, cp, cc, cmiss = latency_run ~logging:`Centralized in
  Printf.printf "%-14s %14.1f %14.1f %10d %8d\n" "centralized" (1e3 *. cm)
    (1e3 *. cp) cc cmiss;
  Printf.printf
    "\npaper: one RTT to the nearest logger holding the packet; local\n\
     recovery cuts latency by about an order of magnitude (%.1fx here).\n"
    (cm /. dm)

(* ------------------------------------------------------------------ *)
(* e_burst — loss-detection bounds of 2.1.1                            *)
(* ------------------------------------------------------------------ *)

let burst_detection ~backoff:b ~t_burst =
  let cfg =
    {
      plain_cfg with
      backoff = b;
      max_it = 1e9 (* isolate detection: no competing silence probes *);
    }
  in
  let detection = ref nan in
  let t_send = 50. in
  let on_notice _node ~now notice =
    match notice with
    | Lbrm.Io.N_gap _ when Float.is_nan !detection -> detection := now -. t_send
    | _ -> ()
  in
  let d =
    Scenario.standard ~cfg ~seed:17 ~sites:1 ~receivers_per_site:1 ~on_notice ()
  in
  (* The receiver loses everything from just before the data packet until
     t_burst later — the paper's worst case (data sent at burst start). *)
  let gw = d.wan.sites.(0).Builders.gateway in
  let victim = snd d.receivers.(0) in
  (match Topo.find_link d.wan.topo ~src:gw ~dst:victim with
  | Some l ->
      Topo.set_link_loss l
        (Loss.burst_windows [ (t_send -. 0.01, t_send +. t_burst) ])
  | None -> ());
  let engine = Sim_runtime.engine d.runtime in
  ignore (Engine.at engine ~time:t_send (fun () -> Scenario.send d "payload"));
  Scenario.run d ~until:(t_send +. (4. *. Float.max t_burst h_min) +. h_max);
  !detection

let e_burst () =
  section "e_burst" "Loss-detection time under burst outages (2.1.1)";
  Printf.printf
    "worst case: the data packet is sent at the start of the outage;\n\
     detection must come within min(backoff * t_burst, h_max), and within\n\
     ~h_min for isolated losses.\n\n";
  Printf.printf "%8s %10s %14s %14s %8s\n" "backoff" "t_burst" "detected (s)"
    "bound (s)" "ok";
  List.iter
    (fun b ->
      List.iter
        (fun t_burst ->
          let detected = burst_detection ~backoff:b ~t_burst in
          let bound =
            Heartbeat.detection_bound ~h_min ~h_max ~backoff:b ~t_burst
          in
          (* Allow propagation slack. *)
          let ok = detected <= bound +. 0.05 in
          Printf.printf "%8.1f %10.2f %14.3f %14.2f %8s\n" b t_burst detected
            bound
            (if ok then "yes" else "NO"))
        [ 0.05; 0.2; 0.5; 1.; 2.; 5.; 8. ])
    [ 2.; 3. ]

(* ------------------------------------------------------------------ *)
(* e_statack — statistical acknowledgement behaviour (2.3)             *)
(* ------------------------------------------------------------------ *)

let statack_run ~enabled =
  let cfg =
    {
      Config.default with
      stat_ack_enabled = enabled;
      k_ackers = 10;
      t_wait_init = 0.15;
      epoch_interval = 4.;
    }
  in
  let sites = 50 in
  let target_seq = 4 in
  (* 8 packets at 2.5 s intervals: seq 4 goes out at t = 10. *)
  let last_delivery = ref 0. in
  let on_deliver _node ~now ~seq ~payload:_ ~recovered:_ =
    if seq = target_seq then last_delivery := Float.max !last_delivery now
  in
  let d =
    Scenario.standard ~cfg ~seed:19 ~sites ~receivers_per_site:1
      ~initial_estimate:(float_of_int sites) ~on_deliver ()
  in
  Topo.set_link_loss d.wan.sites.(0).Builders.tail_up
    (Loss.burst_windows [ (9.95, 10.05) ]);
  Scenario.drive_periodic d ~interval:2.5 ~count:8 ();
  Scenario.run d ~until:60.;
  let metrics = Scenario.metrics d in
  ( !last_delivery -. 10.,
    Metrics.count metrics "sent.nack",
    Metrics.count metrics "statack.remulticast",
    Scenario.total_missing d )

let e_statack () =
  section "e_statack"
    "Statistical acknowledgement: widespread loss repaired in ~1 RTT (2.3)";
  Printf.printf
    "50 sites; one data packet dies on the source's outgoing tail, so\n\
     every remote site misses it simultaneously.\n\n";
  Printf.printf "%-10s %22s %12s %14s %9s\n" "stat-ack" "full recovery (ms)"
    "NACKs" "re-multicasts" "missing";
  let t_on, nacks_on, rm_on, miss_on = statack_run ~enabled:true in
  Printf.printf "%-10s %22.0f %12d %14d %9d\n" "on" (1e3 *. t_on) nacks_on
    rm_on miss_on;
  let t_off, nacks_off, rm_off, miss_off = statack_run ~enabled:false in
  Printf.printf "%-10s %22.0f %12d %14d %9d\n" "off" (1e3 *. t_off) nacks_off
    rm_off miss_off;
  Printf.printf
    "\npaper: missing designated-acker ACKs trigger an immediate multicast\n\
     retransmission, preventing one NACK per site; recovery %.1fx faster\n\
     and %d -> %d NACKs here.\n"
    (t_off /. Float.max 1e-9 t_on)
    nacks_off nacks_on

(* ------------------------------------------------------------------ *)
(* e_wb — organized (LBRM) vs unorganized (wb/SRM) recovery (6)        *)
(* ------------------------------------------------------------------ *)

let e_wb_lbrm () =
  let cfg = { plain_cfg with nack_delay = 0.005 } in
  let d =
    Scenario.standard ~cfg ~seed:23 ~sites:20 ~receivers_per_site:2 ()
  in
  (* Independent 10% loss on every receiver's LAN drop: the site logger
     keeps a complete log, so repairs are local. *)
  Array.iteri
    (fun site s ->
      List.iter
        (fun (_, node) ->
          match Topo.find_link d.wan.topo ~src:s.Builders.gateway ~dst:node with
          | Some l -> Topo.set_link_loss l (Loss.bernoulli 0.1)
          | None -> ())
        (Scenario.site_receivers d ~site))
    d.wan.sites;
  Scenario.drive_periodic d ~interval:1. ~count:30 ();
  Scenario.run d ~until:120.;
  let s = Metrics.sample (Scenario.metrics d) "recovery_latency" in
  (Stats.Sample.median s, Stats.Sample.percentile s 99., Stats.Sample.count s)

let e_wb_srm () =
  let wan = Builders.dis_wan ~sites:20 ~hosts_per_site:4 () in
  (* Same per-receiver loss process as the LBRM run. *)
  Array.iter
    (fun site ->
      Array.iteri
        (fun i h ->
          if i > 0 then
            match Topo.find_link wan.topo ~src:site.Builders.gateway ~dst:h with
            | Some l -> Topo.set_link_loss l (Loss.bernoulli 0.1)
            | None -> ())
        site.Builders.hosts)
    wan.sites;
  let engine = Engine.create ~seed:23 () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of:Srm.size_of () in
  let metrics = Metrics.create () in
  let source = wan.sites.(0).hosts.(0) in
  let members = List.filter (fun h -> h <> source) (Builders.all_hosts wan) in
  let t =
    Srm.deploy ~net ~metrics ~config:Srm.default_config ~group:1 ~source
      ~members
  in
  for i = 1 to 30 do
    ignore
      (Engine.schedule engine ~delay:(float_of_int i) (fun () ->
           Srm.send t "payload-of-similar-length-128B-xxxxxxxxxxxxxxxxxxx"))
  done;
  Engine.run ~until:120. engine;
  let s = Metrics.sample metrics "srm.recovery_latency" in
  ( Stats.Sample.median s,
    Stats.Sample.percentile s 99.,
    Stats.Sample.count s,
    Metrics.count metrics "srm.dup_request",
    Metrics.count metrics "srm.dup_repair" )

let e_wb () =
  section "e_wb" "LBRM vs wb-style recovery latency and redundancy (6)";
  Printf.printf
    "20 sites, independent 10%% loss on every receiver's LAN drop,\n\
     30 packets at 1/s.  Cross-WAN RTT ~80 ms; intra-site RTT ~3.6 ms.\n\n";
  let lm, lp, lc = e_wb_lbrm () in
  let sm, sp, sc, sdreq, sdrep = e_wb_srm () in
  Printf.printf "%-8s %12s %12s %10s %12s %12s\n" "proto" "median (ms)"
    "p99 (ms)" "repairs" "dup reqs" "dup repairs";
  Printf.printf "%-8s %12.1f %12.1f %10d %12s %12s\n" "LBRM" (1e3 *. lm)
    (1e3 *. lp) lc "0" "0";
  Printf.printf "%-8s %12.1f %12.1f %10d %12d %12d\n" "wb/SRM" (1e3 *. sm)
    (1e3 *. sp) sc sdreq sdrep;
  Printf.printf
    "\npaper: LBRM recovers in ~1 RTT to the nearest logger with the packet;\n\
     wb needs ~3 RTT to the source and multicasts redundant traffic.\n\
     measured ratio of median recovery times: %.1fx.\n"
    (sm /. Float.max 1e-9 lm)

(* ------------------------------------------------------------------ *)
(* e_cry — the crying-baby problem (6)                                 *)
(* ------------------------------------------------------------------ *)

let e_cry () =
  section "e_cry" "The crying-baby problem (6)";
  Printf.printf
    "10 sites; one receiver sits behind a 20%%-lossy LAN drop.  We count\n\
     recovery traffic imported by a *healthy* site's tail circuit.\n\n";
  let healthy_site = 4 and baby_site = 9 in
  (* LBRM *)
  let lbrm_imported, lbrm_missing =
    let cfg = plain_cfg in
    let d =
      Scenario.standard ~cfg ~seed:29 ~sites:10 ~receivers_per_site:3 ()
    in
    let baby = snd (List.hd (Scenario.site_receivers d ~site:baby_site)) in
    let gw = d.wan.sites.(baby_site).Builders.gateway in
    (match Topo.find_link d.wan.topo ~src:gw ~dst:baby with
    | Some l -> Topo.set_link_loss l (Loss.bernoulli 0.2)
    | None -> ());
    let tail = d.wan.sites.(healthy_site).Builders.tail_down in
    let imported = ref 0 in
    Net.on_link_transit (Sim_runtime.net d.runtime) (fun link msg ->
        match msg with
        | (Message.Nack _ | Message.Retrans _) when link == tail ->
            incr imported
        | _ -> ());
    Scenario.drive_periodic d ~interval:0.5 ~count:60 ();
    Scenario.run d ~until:120.;
    (!imported, Scenario.total_missing d)
  in
  (* SRM *)
  let srm_imported =
    let wan = Builders.dis_wan ~sites:10 ~hosts_per_site:4 () in
    let engine = Engine.create ~seed:29 () in
    let net = Net.create ~engine ~topo:wan.topo ~size_of:Srm.size_of () in
    let metrics = Metrics.create () in
    let source = wan.sites.(0).hosts.(0) in
    let members =
      List.filter (fun h -> h <> source) (Builders.all_hosts wan)
    in
    let baby = wan.sites.(baby_site).hosts.(1) in
    (match
       Topo.find_link wan.topo ~src:wan.sites.(baby_site).gateway ~dst:baby
     with
    | Some l -> Topo.set_link_loss l (Loss.bernoulli 0.2)
    | None -> ());
    let t =
      Srm.deploy ~net ~metrics ~config:Srm.default_config ~group:1 ~source
        ~members
    in
    let tail = wan.sites.(healthy_site).Builders.tail_down in
    let imported = ref 0 in
    Net.on_link_transit net (fun link msg ->
        match msg with
        | (Srm.Request _ | Srm.Repair _) when link == tail -> incr imported
        | _ -> ());
    for i = 1 to 60 do
      ignore
        (Engine.schedule engine ~delay:(0.5 *. float_of_int i) (fun () ->
             Srm.send t "payload"))
    done;
    Engine.run ~until:120. engine;
    !imported
  in
  Printf.printf "%-8s %40s\n" "proto" "recovery packets into the healthy site";
  Printf.printf "%-8s %40d\n" "LBRM" lbrm_imported;
  Printf.printf "%-8s %40d\n" "wb/SRM" srm_imported;
  Printf.printf
    "\npaper: under wb every member contends with multicast requests and\n\
     repairs caused by one bad link; LBRM repairs the crying baby by\n\
     unicast from its own site logger (LBRM missing at end: %d).\n"
    lbrm_missing

(* ------------------------------------------------------------------ *)
(* e_implosion — positive-ACK implosion vs k statistical ACKs (1, 2.3) *)
(* ------------------------------------------------------------------ *)

let posack_acks_per_packet ~receivers:n =
  let sites = Stdlib.max 1 (n / 10) in
  let per_site = ((n + sites - 1) / sites) + 1 in
  let wan = Builders.dis_wan ~sites ~hosts_per_site:per_site () in
  let engine = Engine.create ~seed:31 () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of:Pos_ack.size_of () in
  let metrics = Metrics.create () in
  let source = wan.sites.(0).hosts.(0) in
  let receivers =
    List.filteri
      (fun i _ -> i < n)
      (List.filter (fun h -> h <> source) (Builders.all_hosts wan))
  in
  let t =
    Pos_ack.deploy ~net ~metrics ~config:Pos_ack.default_config ~group:1 ~source
      ~receivers
  in
  let packets = 3 in
  for i = 1 to packets do
    ignore
      (Engine.schedule engine ~delay:(float_of_int i) (fun () ->
           Pos_ack.send t "x"))
  done;
  Engine.run ~until:30. engine;
  float_of_int (Pos_ack.acks_at_source t) /. float_of_int packets

let lbrm_acks_per_packet ~sites =
  let cfg =
    {
      Config.default with
      k_ackers = 20;
      t_wait_init = 0.15;
      epoch_interval = 10.;
    }
  in
  let d =
    Scenario.standard ~cfg ~seed:31 ~sites ~receivers_per_site:1
      ~initial_estimate:(float_of_int sites) ()
  in
  let packets = 3 in
  Scenario.drive_periodic d ~interval:1. ~count:packets ();
  Scenario.run d ~until:30.;
  float_of_int (Metrics.count (Scenario.metrics d) "sent.stat_ack")
  /. float_of_int packets

let e_implosion () =
  section "e_implosion"
    "ACK implosion: positive ACK vs statistical acknowledgement (1, 2.3)";
  Printf.printf "per-packet acknowledgement traffic arriving at the source.\n\n";
  Printf.printf "%10s %18s %22s\n" "receivers" "positive-ACK"
    "LBRM (k=20 ackers)";
  List.iter
    (fun n ->
      let pos = posack_acks_per_packet ~receivers:n in
      let lbrm = lbrm_acks_per_packet ~sites:n in
      Printf.printf "%10d %18.1f %22.1f\n" n pos lbrm)
    [ 10; 50; 100; 250; 500 ];
  print_endline
    "\npaper: positive acknowledgement implodes linearly with the group;\n\
     LBRM's designated ackers hold the source's ACK load at ~k regardless\n\
     of group size (2.3.1 suggests k between 5 and 20)."

(* ------------------------------------------------------------------ *)
(* e_hier - multi-level logger hierarchy (§7 future work)             *)
(* ------------------------------------------------------------------ *)

let hier_nacks_at_primary ~levels =
  let regions = 5 and sites_per_region = 8 in
  let lossy_region = 2 in
  let tail_loss site =
    (* Every site of one region loses the same packet: the situation a
       regional tier aggregates. *)
    if site / sites_per_region = lossy_region then
      Loss.burst_windows [ (4.95, 5.05) ]
    else Loss.none
  in
  let d =
    match levels with
    | `Two ->
        Scenario.standard ~cfg:plain_cfg ~seed:37
          ~sites:(regions * sites_per_region) ~receivers_per_site:4 ~tail_loss
          ()
    | `Three ->
        Scenario.hierarchical ~cfg:plain_cfg ~seed:37 ~regions
          ~sites_per_region ~receivers_per_site:4 ~tail_loss ()
  in
  let gw0 = d.wan.sites.(0).Builders.gateway in
  let primary_link = Topo.find_link d.wan.topo ~src:gw0 ~dst:d.primary_node in
  let at_primary = ref 0 in
  Net.on_link_transit (Sim_runtime.net d.runtime) (fun link msg ->
      match (msg, primary_link) with
      | Message.Nack _, Some pl when link == pl -> incr at_primary
      | _ -> ());
  Scenario.drive_periodic d ~interval:1. ~count:10 ();
  Scenario.run d ~until:60.;
  (!at_primary, Scenario.total_missing d)

let e_hier () =
  section "e_hier"
    "Multi-level logger hierarchy shrinks primary NACK load (7)";
  Printf.printf
    "5 regions x 8 sites x 4 receivers; all 8 sites of one region lose\n\
     the same packet (e.g. a regional backbone glitch).\n\n";
  Printf.printf "%-26s %20s %10s\n" "hierarchy" "NACKs into primary" "missing";
  let n2, m2 = hier_nacks_at_primary ~levels:`Two in
  Printf.printf "%-26s %20d %10d\n" "2-level (site->primary)" n2 m2;
  let n3, m3 = hier_nacks_at_primary ~levels:`Three in
  Printf.printf "%-26s %20d %10d\n" "3-level (+regional)" n3 m3;
  Printf.printf
    "\npaper (7): \"a multi-level hierarchy of logging servers may be used\n\
     to further reduce NACK bandwidth in large groups\" - one request per\n\
     region instead of one per site (%d -> %d here).\n" n2 n3

(* ------------------------------------------------------------------ *)
(* e_piggyback - payload-carrying heartbeats (§7 option)              *)
(* ------------------------------------------------------------------ *)

let piggyback_run ~enabled =
  let cfg =
    {
      plain_cfg with
      heartbeat_payload_max = (if enabled then 256 else 0);
    }
  in
  let d =
    Scenario.standard ~cfg ~seed:41 ~sites:5 ~receivers_per_site:4
      ~tail_loss:(fun _ -> Loss.bernoulli 0.15)
      ()
  in
  Scenario.drive_periodic d ~interval:2.0 ~count:30 ~payload_size:64 ();
  Scenario.run d ~until:120.;
  let metrics = Scenario.metrics d in
  let lat = Metrics.sample metrics "recovery_latency" in
  ( Metrics.count metrics "sent.nack",
    Metrics.count metrics "sent.retrans",
    (if Stats.Sample.count lat > 0 then Stats.Sample.median lat else 0.),
    Scenario.total_missing d )

let e_piggyback () =
  section "e_piggyback"
    "Heartbeats carrying the original small packet (7 option)";
  Printf.printf
    "5 sites x 4 receivers, 15%% tail loss, 64-byte payloads every 2 s:\n\
     with the option on, the first heartbeat after a loss re-delivers the\n\
     packet, so most losses never need a retransmission request.\n\n";
  Printf.printf "%-12s %8s %10s %22s %9s\n" "piggyback" "NACKs" "repairs"
    "median recovery (ms)" "missing";
  let n_off, r_off, l_off, m_off = piggyback_run ~enabled:false in
  Printf.printf "%-12s %8d %10d %22.1f %9d\n" "off" n_off r_off (1e3 *. l_off)
    m_off;
  let n_on, r_on, l_on, m_on = piggyback_run ~enabled:true in
  Printf.printf "%-12s %8d %10d %22.1f %9d\n" "on" n_on r_on (1e3 *. l_on)
    m_on;
  Printf.printf
    "\npaper (7): \"for small packets, it might be cost-effective to\n\
     retransmit the original packet instead of an empty heartbeat packet.\n\
     This would reduce retransmission requests.\"  NACKs: %d -> %d.\n"
    n_off n_on

(* ------------------------------------------------------------------ *)
(* e_pacer - congestion-responsive sending (5 future work)             *)
(* ------------------------------------------------------------------ *)

let pacer_run ~adaptive =
  let cfg =
    {
      Config.default with
      k_ackers = 10;
      t_wait_init = 0.15;
      epoch_interval = 4.;
    }
  in
  let pacer =
    Lbrm.Pacer.create ~min_interval:1.0 ~max_interval:16. ~backoff:2.
      ~recovery:0.3 ~target_loss:0.2 ()
  in
  let on_source_notice ~now:_ notice =
    match notice with
    | Lbrm.Io.N_feedback { missing; expected; _ } when adaptive ->
        Lbrm.Pacer.on_feedback pacer ~missing ~expected
    | _ -> ()
  in
  let d =
    Scenario.standard ~cfg ~seed:43 ~sites:20 ~receivers_per_site:1
      ~initial_estimate:20. ~on_source_notice ()
  in
  (* Total outage on every tail from t = 30 to 60: a severe congestion
     episode. *)
  Array.iter
    (fun site ->
      Topo.set_link_loss site.Builders.tail_down
        (Loss.burst_windows [ (30., 60.) ]))
    d.wan.sites;
  let engine = Sim_runtime.engine d.runtime in
  let in_window = ref 0 and total = ref 0 in
  let rec loop () =
    (* The application wants 1 packet/s; an adaptive sender defers to
       the pacer's advice. *)
    let delay =
      if adaptive then Float.max 1. (Lbrm.Pacer.interval pacer) else 1.
    in
    ignore
      (Engine.schedule engine ~delay (fun () ->
           if Engine.now engine < 90. then begin
             incr total;
             let now = Engine.now engine in
             if now >= 30. && now < 60. then incr in_window;
             Scenario.send d (Scenario.payload_of_size 128 !total);
             loop ()
           end))
  in
  loop ();
  Scenario.run d ~until:240.;
  let metrics = Scenario.metrics d in
  ( !in_window,
    !total,
    Metrics.count metrics "sent.nack",
    Lbrm.Pacer.backoffs pacer,
    Scenario.total_missing d )

let e_pacer () =
  section "e_pacer"
    "Statistical-ACK feedback slows the sender during loss (5)";
  Printf.printf
    "20 sites; every tail circuit is dark from t=30 to t=60 while the\n\
     application offers 1 packet/s.  An adaptive sender backs off on\n\
     missing designated-acker ACKs and recovers afterwards.\n\n";
  Printf.printf "%-10s %18s %12s %10s %10s %9s\n" "sender"
    "sends in outage" "total sends" "NACKs" "backoffs" "missing";
  let w_f, t_f, n_f, b_f, m_f = pacer_run ~adaptive:false in
  Printf.printf "%-10s %18d %12d %10d %10d %9d\n" "fixed" w_f t_f n_f b_f m_f;
  let w_a, t_a, n_a, b_a, m_a = pacer_run ~adaptive:true in
  Printf.printf "%-10s %18d %12d %10d %10d %9d\n" "adaptive" w_a t_a n_a b_a
    m_a;
  Printf.printf
    "\npaper (5): \"we are looking into use statistical acknowledgement\n\
     information to slow down the sender during periods of high loss\" -\n\
     the adaptive sender pushed %d packets into the outage instead of %d,\n\
     and the post-outage recovery storm shrank accordingly (%d -> %d\n\
     NACKs).  Everything is still delivered (receiver-reliability).\n"
    w_a w_f n_f n_a

(* ------------------------------------------------------------------ *)
(* e_tailbw - heartbeat bytes on a real tail circuit, many flows       *)
(* ------------------------------------------------------------------ *)

(* Figure 4/5 measured the hard way: dozens of terrain-entity flows
   multiplexed over one WAN; we count actual heartbeat bytes crossing a
   receiving site's T1 tail circuit under each policy. *)
let tailbw_run ~policy =
  let flows = 40 in
  let wan = Builders.dis_wan ~sites:2 ~hosts_per_site:4 () in
  let engine = Engine.create ~seed:47 () in
  let metrics = Metrics.create () in
  let mux = Lbrm_run.Mux.create ~engine ~topo:wan.topo ~metrics in
  let rng = Rng.create ~seed:9 in
  let tail = wan.sites.(1).Builders.tail_down in
  let hb_bytes = ref 0 and data_bytes = ref 0 in
  Net.on_link_transit (Lbrm_run.Mux.net mux) (fun link env ->
      if link == tail then
        match env.Lbrm_run.Mux.msg with
        | Message.Heartbeat _ ->
            hb_bytes := !hb_bytes + Lbrm_run.Mux.wire_size env
        | Message.Data _ ->
            data_bytes := !data_bytes + Lbrm_run.Mux.wire_size env
        | _ -> ());
  (* One source + receiver pair per flow; terrain entities change state
     with exponential inter-update times (mean 60 s here to keep the
     simulated span reasonable). *)
  let span = 600. in
  for flow = 1 to flows do
    let cfg =
      {
        plain_cfg with
        heartbeat_policy = policy;
        group = 2 * flow;
        discovery_group = (2 * flow) + 1;
        max_it = 1e9;
      }
    in
    let src = wan.sites.(0).hosts.(1) in
    let prim = wan.sites.(0).hosts.(2) in
    let recv = wan.sites.(1).hosts.(3) in
    let source = Lbrm.Source.create cfg ~self:src ~primary:prim () in
    let primary =
      Lbrm.Logger.create cfg ~self:prim ~source:src ~rng:(Rng.split rng) ()
    in
    let receiver =
      Lbrm.Receiver.create cfg ~self:recv ~source:src ~loggers:[ prim ]
    in
    Lbrm_run.Mux.attach mux ~node:src ~flow (Lbrm_run.Handlers.of_source source);
    Lbrm_run.Mux.attach mux ~node:prim ~flow (Lbrm_run.Handlers.of_logger primary);
    Lbrm_run.Mux.attach mux ~node:recv ~flow
      (Lbrm_run.Handlers.of_receiver receiver);
    Lbrm_run.Mux.join mux ~group:cfg.group ~node:prim;
    Lbrm_run.Mux.join mux ~group:cfg.group ~node:recv;
    Lbrm_run.Mux.perform mux ~node:src ~flow (Lbrm.Source.start source ~now:0.);
    Lbrm_run.Mux.perform mux ~node:recv ~flow
      (Lbrm.Receiver.start receiver ~now:0.);
    let frng = Rng.split rng in
    let counter = ref 0 in
    let rec arm after =
      let at = after +. Rng.exponential frng ~mean:60. in
      if at < span then
        ignore
          (Engine.at engine ~time:at (fun () ->
               incr counter;
               Lbrm_run.Mux.perform mux ~node:src ~flow
                 (Lbrm.Source.send source ~now:(Engine.now engine)
                    (Scenario.payload_of_size 64 !counter));
               arm at))
    in
    arm 0.
  done;
  Lbrm_run.Mux.run ~until:span mux;
  (!hb_bytes, !data_bytes, span)

let e_tailbw () =
  section "e_tailbw"
    "Heartbeat bandwidth on a tail circuit, 40 multiplexed flows (2.1.2)";
  Printf.printf
    "40 terrain-entity flows (Poisson updates, mean 60 s) share one WAN;\n\
     bytes counted on the receiving site's T1 tail circuit over 600 s.\n\n";
  Printf.printf "%-10s %16s %16s %18s\n" "policy" "hb bytes" "data bytes"
    "hb bits/s on T1";
  let hb_f, data_f, span = tailbw_run ~policy:Config.Fixed in
  Printf.printf "%-10s %16d %16d %18.0f\n" "fixed" hb_f data_f
    (float_of_int (8 * hb_f) /. span);
  let hb_v, data_v, _ = tailbw_run ~policy:Config.Variable in
  Printf.printf "%-10s %16d %16d %18.0f\n" "variable" hb_v data_v
    (float_of_int (8 * hb_v) /. span);
  Printf.printf
    "\nmeasured heartbeat bandwidth reduction: %.1fx (the closed form\n\
     predicts ~%.1fx at dt = 60 s); data bytes are identical by\n\
     construction.  This is Figure 4 observed on the wire rather than\n\
     computed.\n"
    (float_of_int hb_f /. float_of_int (Stdlib.max 1 hb_v))
    (Heartbeat.overhead_ratio ~h_min ~h_max ~backoff ~dt:60.)

(* ------------------------------------------------------------------ *)
(* e_rchannel - the 7 retransmission channel                           *)
(* ------------------------------------------------------------------ *)

let rchannel_run ~enabled =
  let cfg =
    if enabled then { plain_cfg with rchannel_group = Some 9 } else plain_cfg
  in
  let d =
    Scenario.standard ~cfg ~seed:53 ~sites:10 ~receivers_per_site:3
      ~tail_loss:(fun _ -> Loss.bernoulli 0.15)
      ()
  in
  (* Count repair traffic crossing one site's tail circuit. *)
  let tail = d.wan.sites.(5).Builders.tail_down in
  let repair_bytes = ref 0 in
  Net.on_link_transit (Sim_runtime.net d.runtime) (fun link msg ->
      match msg with
      | Message.Retrans _ when link == tail ->
          repair_bytes := !repair_bytes + Message.wire_size msg
      | _ -> ());
  Scenario.drive_periodic d ~interval:1.0 ~count:40 ();
  Scenario.run d ~until:120.;
  let metrics = Scenario.metrics d in
  let lat = Metrics.sample metrics "recovery_latency" in
  ( Metrics.count metrics "sent.nack",
    (if Stats.Sample.count lat > 0 then Stats.Sample.median lat else 0.),
    !repair_bytes,
    Scenario.total_missing d )

let e_rchannel () =
  section "e_rchannel" "A separate retransmission channel (7)";
  Printf.printf
    "10 sites x 3 receivers, 15%% tail loss.  With the channel on, the\n\
     source re-multicasts every packet 3 times (exponential backoff) on\n\
     a second group; receivers subscribe on loss instead of NACKing and\n\
     unsubscribe once whole.\n\n";
  Printf.printf "%-10s %8s %22s %24s %9s\n" "channel" "NACKs"
    "median recovery (ms)" "repair bytes on a tail" "missing";
  let n_off, l_off, b_off, m_off = rchannel_run ~enabled:false in
  Printf.printf "%-10s %8d %22.1f %24d %9d\n" "off" n_off (1e3 *. l_off)
    b_off m_off;
  let n_on, l_on, b_on, m_on = rchannel_run ~enabled:true in
  Printf.printf "%-10s %8d %22.1f %24d %9d\n" "on" n_on (1e3 *. l_on) b_on
    m_on;
  Printf.printf
    "\npaper (7): receivers \"recover a lost transmission by subscribing to\n\
     the retransmission channel, rather than requesting the packet\" -\n\
     NACK traffic vanishes (%d -> %d) in exchange for channel bandwidth\n\
     that flows only toward subscribed (i.e. lossy) sites.\n"
    n_off n_on

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", "Figure 4: heartbeat overhead rates", fig4);
    ("fig5", "Figure 5: fixed/variable overhead ratio", fig5);
    ("tab1", "Table 1: ratio vs backoff", tab1);
    ("tab2", "Table 2: N_sl estimate accuracy", tab2);
    ("tab3", "Table 3: logging-server response time", tab3);
    ("e_nack", "2.2.2: tail-circuit NACK reduction", e_nack);
    ("e_latency", "2.2.2: local vs remote recovery latency", e_latency);
    ("e_burst", "2.1.1: loss-detection bounds", e_burst);
    ("e_statack", "2.3: statistical acknowledgement", e_statack);
    ("e_wb", "6: LBRM vs wb recovery", e_wb);
    ("e_cry", "6: crying-baby problem", e_cry);
    ("e_implosion", "1/2.3: ACK implosion", e_implosion);
    ("e_hier", "7: multi-level logger hierarchy", e_hier);
    ("e_piggyback", "7: payload-carrying heartbeats", e_piggyback);
    ("e_pacer", "5: congestion-responsive sending", e_pacer);
    ("e_tailbw", "2.1.2: tail-circuit heartbeat bandwidth, 40 flows", e_tailbw);
    ("e_rchannel", "7: separate retransmission channel", e_rchannel);
  ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--list" args then
    List.iter
      (fun (id, desc, _) -> Printf.printf "%-12s %s\n" id desc)
      experiments
  else
    let only =
      let rec find = function
        | "--only" :: id :: _ -> Some id
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    let selected =
      match only with
      | None -> experiments
      | Some id -> (
          match List.filter (fun (i, _, _) -> i = id) experiments with
          | [] ->
              Printf.eprintf "unknown experiment %s (try --list)\n" id;
              exit 2
          | l -> l)
    in
    List.iter (fun (_, _, run) -> run ()) selected;
    print_newline ()
