(* lbrm — command-line driver.

   Subcommands:
     simulate   run an LBRM deployment on the simulated WAN and report
     trace      reconstruct causal recovery timelines from typed traces
     udp        run a live LBRM session over loopback UDP sockets
     traffic    print the STOW-97 traffic arithmetic (2.1.2)

   Experiments and benchmarks live in bench/main.exe (one target per
   paper table/figure). *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate sites receivers loss packets interval seed stat_ack duration
    population keep_last archive_segment_bytes =
  let cfg =
    {
      Lbrm.Config.default with
      stat_ack_enabled = stat_ack;
      retention =
        (match keep_last with
        | Some n -> Lbrm.Log_store.Keep_last n
        | None -> Lbrm.Config.default.retention);
      archive_segment_bytes =
        Option.value archive_segment_bytes
          ~default:Lbrm.Config.default.archive_segment_bytes;
    }
  in
  let archive = archive_segment_bytes <> None in
  let site_population =
    if population > 0 then
      Some (Lbrm_run.Scenario.population_spec ~members:population ())
    else None
  in
  let d =
    Lbrm_run.Scenario.standard ~cfg ~seed ~sites ~receivers_per_site:receivers
      ~initial_estimate:(float_of_int sites)
      ~tail_loss:(fun _ ->
        if loss > 0. then Lbrm_sim.Loss.bernoulli loss else Lbrm_sim.Loss.none)
      ?site_population ~archive ()
  in
  Lbrm_run.Scenario.drive_periodic d ~interval ~count:packets ();
  Lbrm_run.Scenario.run d ~until:duration;
  if archive then Lbrm_run.Scenario.record_archive_stats d;
  Printf.printf
    "LBRM simulation: %d sites x %d receivers, %.0f%% tail loss, %d packets\n\n"
    sites receivers (100. *. loss) packets;
  let complete =
    Array.for_all
      (fun (r, _) -> Lbrm.Receiver.delivered r = packets)
      d.receivers
    && Array.for_all
         (fun (p, _) ->
           Lbrm_sim.Site_population.known (Lbrm_run.Population.model p)
           = packets)
         d.populations
  in
  Printf.printf "complete delivery everywhere: %b\n"
    (complete && Lbrm_run.Scenario.total_missing d = 0);
  Printf.printf "still missing               : %d\n"
    (Lbrm_run.Scenario.total_missing d);
  if Array.length d.populations > 0 then begin
    let module SP = Lbrm_sim.Site_population in
    let fold f init =
      Array.fold_left
        (fun acc (p, _) -> f acc (Lbrm_run.Population.model p))
        init d.populations
    in
    Printf.printf "modeled receivers           : %d\n"
      (population * Array.length d.populations);
    Printf.printf "aggregate deliveries        : %d (%d recovered)\n"
      (fold (fun a m -> a + SP.delivered m) 0)
      (fold (fun a m -> a + SP.recovered m) 0);
    Printf.printf "tracer agreement max |z|    : %.3f\n"
      (fold (fun a m -> Float.max a (Float.abs (SP.agreement_z m))) 0.)
  end;
  let net = Lbrm_run.Sim_runtime.net d.runtime in
  Printf.printf "mcast tree cache            : %d/%d entries, %d hits, %d \
                 builds\n"
    (Lbrm_sim.Net.mcast_cache_size net)
    (Lbrm_sim.Net.mcast_cache_cap net)
    (Lbrm_sim.Net.mcast_cache_hits net)
    (Lbrm_sim.Net.mcast_tree_builds net);
  print_newline ();
  Format.printf "%a@." Lbrm_util.Metrics.pp (Lbrm_run.Scenario.metrics d);
  if complete then 0 else 1

let simulate_cmd =
  let sites =
    Arg.(value & opt int 5 & info [ "sites" ] ~doc:"Number of sites.")
  in
  let receivers =
    Arg.(value & opt int 4 & info [ "receivers" ] ~doc:"Receivers per site.")
  in
  let loss =
    Arg.(
      value & opt float 0.1
      & info [ "loss" ] ~doc:"Tail-circuit loss probability (0-1).")
  in
  let packets =
    Arg.(value & opt int 30 & info [ "packets" ] ~doc:"Data packets to send.")
  in
  let interval =
    Arg.(
      value & opt float 0.5
      & info [ "interval" ] ~doc:"Seconds between data packets.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let stat_ack =
    Arg.(
      value & opt bool true
      & info [ "stat-ack" ] ~doc:"Enable statistical acknowledgement.")
  in
  let duration =
    Arg.(
      value & opt float 120.
      & info [ "duration" ] ~doc:"Virtual seconds to simulate.")
  in
  let population =
    Arg.(
      value & opt int 0
      & info [ "population" ] ~docv:"N"
          ~doc:
            "Additionally model $(docv) aggregate receivers per site (with \
             tracer cross-checks) — scales a run to millions of receivers \
             without per-receiver agents.  0 disables.")
  in
  let keep_last =
    Arg.(
      value
      & opt (some int) None
      & info [ "keep-last" ] ~docv:"N"
          ~doc:
            "Bound every logger's in-memory store to the last $(docv) \
             packets (default: keep everything in RAM).  Pair with \
             $(b,--archive-segment-bytes) so evictions spill to the disk \
             tier instead of vanishing.")
  in
  let archive_segment_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "archive-segment-bytes" ] ~docv:"BYTES"
          ~doc:
            "Attach the segmented disk tier to every logger, rotating \
             archive segments at $(docv) bytes (the library default is \
             262144).  Evicted packets spill to segments, retransmissions \
             fall through memory to disk, and the $(b,archive.*) counters \
             appear in the trace summary.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run an LBRM deployment on the simulated WAN")
    Term.(
      const simulate $ sites $ receivers $ loss $ packets $ interval $ seed
      $ stat_ack $ duration $ population $ keep_last $ archive_segment_bytes)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let replication_conv =
  let parse s =
    match Lbrm.Config.replication_of_string s with
    | Some r -> Ok r
    | None ->
        Error (`Msg (Printf.sprintf "unknown replication strategy %S" s))
  in
  let print ppf r =
    Format.pp_print_string ppf (Lbrm.Config.replication_label r)
  in
  Arg.conv (parse, print)

let replication_arg =
  Arg.(
    value
    & opt replication_conv Lbrm.Config.R_primary
    & info [ "replication" ] ~docv:"STRATEGY"
        ~doc:
          "Logger-replication strategy: $(b,primary) (deposits to one \
           primary that fans to replicas), $(b,ring) (hop-by-hop deposits \
           around an ordered replica ring, tail acks), or $(b,quorum) \
           (deposit multicast to all members, durable at a majority of \
           floors).")

let chaos seed soak h_min replication =
  let module C = Lbrm_run.Chaos in
  let outcomes =
    C.run_scripted ?h_min ~replication ()
    @ if soak then [ C.random_chaos ~seed ~replication () ] else []
  in
  let failed = ref 0 in
  List.iter
    (fun (o : C.outcome) ->
      Printf.printf "%-16s %s  (deliveries %d, failovers %d, \
                     rediscoveries %d)\n"
        o.C.name
        (if C.passed o then "PASS" else "FAIL")
        o.C.delivered o.C.failovers o.C.rediscoveries;
      let fl = Lbrm_util.Metrics.sample o.C.metrics "failover_latency" in
      if Lbrm_util.Stats.Sample.count fl > 0 then
        Printf.printf "  failover latency    : %.3f s\n"
          (Lbrm_util.Stats.Sample.median fl);
      let wl = Lbrm_util.Metrics.sample o.C.metrics "window_of_loss" in
      if Lbrm_util.Stats.Sample.count wl > 0 then
        Printf.printf "  window of loss      : %.0f packets re-deposited\n"
          (Lbrm_util.Stats.Sample.median wl);
      let rl = Lbrm_util.Metrics.sample o.C.metrics "rediscovery_latency" in
      if Lbrm_util.Stats.Sample.count rl > 0 then
        Printf.printf "  rediscovery latency : median %.3f s, p99 %.3f s \
                       (%d samples)\n"
          (Lbrm_util.Stats.Sample.median rl)
          (Lbrm_util.Stats.Sample.percentile rl 99.)
          (Lbrm_util.Stats.Sample.count rl);
      if not (C.passed o) then begin
        incr failed;
        List.iter (Printf.printf "  violation: %s\n") o.C.violations
      end)
    outcomes;
  if !failed = 0 then 0 else 1

let chaos_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Soak schedule seed.")
  in
  let soak =
    Arg.(
      value & flag
      & info [ "soak" ]
          ~doc:"Also run the seeded random crash/partition soak.")
  in
  let h_min =
    Arg.(
      value
      & opt (some float) None
      & info [ "h-min" ]
          ~doc:
            "Override the minimum heartbeat interval (seconds) in the \
             scripted scenarios; failure-detection latency scales with it.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the fault-injection scenarios (logger crashes, site \
          partition) and check end-to-end invariants")
    Term.(const chaos $ seed $ soak $ h_min $ replication_arg)


(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

(* Reconstruct, from the merged typed trace of a scripted scenario, the
   causal chain of every loss: gap detection -> NACK -> logger
   retransmission -> delivery, plus recovery-latency percentiles. *)
let trace_scenario name seed jsonl_path ring_size replication =
  let module C = Lbrm_run.Chaos in
  let module T = Lbrm.Trace in
  let module Tl = Lbrm.Timeline in
  let run_lossy sink =
    let d =
      Lbrm_run.Scenario.standard ~seed ~initial_estimate:50.
        ~tail_loss:(fun _ -> Lbrm_sim.Loss.bernoulli 0.05)
        ~sink ~sites:50 ~receivers_per_site:1 ()
    in
    Lbrm_run.Scenario.drive_periodic d ~interval:0.1 ~count:40 ();
    Lbrm_run.Scenario.run d ~until:30.
  in
  (* events, plus (dropped, capacity) when a bounded ring recorded them *)
  let events, ring_drops =
    match name with
    | "primary-crash" -> ((C.primary_crash ~seed ~replication ()).C.events, None)
    | "secondary-crash" ->
        ((C.secondary_crash ~seed ~replication ()).C.events, None)
    | "partition-heal" ->
        ((C.partition_heal ~seed ~replication ()).C.events, None)
    | "lossy" when ring_size > 0 ->
        let ring = T.Ring.create ~capacity:ring_size in
        run_lossy (T.Ring.sink ring);
        (T.Ring.records ring, Some (T.Ring.dropped ring, T.Ring.capacity ring))
    | "lossy" ->
        let collector = T.Collector.create () in
        run_lossy (T.Collector.sink collector);
        (T.Collector.records collector, None)
    | other ->
        Printf.eprintf
          "unknown scenario %S (expected primary-crash, secondary-crash, \
           partition-heal or lossy)\n"
          other;
        exit 2
  in
  (* A full ring silently truncates history — surface it loudly, since
     timelines built from a clipped window miss gap/NACK causes. *)
  (match ring_drops with
  | Some (dropped, capacity) when dropped > 0 ->
      Printf.printf
        "warning: %d trace events dropped (ring capacity %d) — oldest \
         events lost, timelines may be incomplete; raise --ring-size\n"
        dropped capacity
  | _ -> ());
  (match jsonl_path with
  | Some path ->
      let oc = open_out path in
      output_string oc (T.jsonl_of_records events);
      close_out oc;
      Printf.printf "wrote %d records to %s\n" (List.length events) path
  | None -> ());
  let losses = Tl.build events in
  Printf.printf "%s: %d trace records, %d losses (digest %s)\n" name
    (List.length events) (List.length losses) (T.digest events);
  List.iter (fun l -> Format.printf "  %a@." Tl.pp_loss l) losses;
  let lats = Tl.latencies losses in
  (match lats with
  | [] -> Printf.printf "no recovered losses\n"
  | _ ->
      let s = Lbrm_util.Stats.Sample.create () in
      List.iter (Lbrm_util.Stats.Sample.add s) lats;
      let pct p = Lbrm_util.Stats.Sample.percentile s p in
      Printf.printf
        "recovery latency over %d losses: p50 %.3f s, p90 %.3f s, p99 %.3f \
         s, max %.3f s\n"
        (List.length lats) (pct 50.) (pct 90.) (pct 99.)
        (Lbrm_util.Stats.Sample.max s));
  let promotions = List.length (T.Query.promotions events) in
  let abandoned =
    List.length (List.filter (fun l -> Tl.abandoned l) losses)
  in
  Printf.printf "promotions %d, abandoned recoveries %d\n" promotions
    abandoned;
  if abandoned = 0 then 0 else 1

let trace_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:
            "One of primary-crash, secondary-crash, partition-heal or \
             lossy (a 50-site run under 5% tail loss).")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Scenario seed.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Also dump the merged trace as JSON Lines to $(docv).")
  in
  let ring_size =
    Arg.(
      value & opt int 0
      & info [ "ring-size" ] ~docv:"N"
          ~doc:
            "Record the lossy scenario through a bounded flight-recorder \
             ring of $(docv) events instead of an unbounded collector; a \
             warning reports any events the ring overwrote.  0 (default) \
             keeps everything.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a scripted scenario with tracing enabled and print the \
          causal recovery timeline of every loss")
    Term.(
      const trace_scenario $ scenario $ seed $ jsonl $ ring_size
      $ replication_arg)

(* ------------------------------------------------------------------ *)
(* udp                                                                 *)
(* ------------------------------------------------------------------ *)

let udp base_port packets loss seconds batch slot_size no_mmsg =
  let module U = Lbrm_run.Udp_runtime in
  let cfg =
    {
      Lbrm.Config.default with
      stat_ack_enabled = false;
      nack_delay = 0.02;
      nack_timeout = 0.3;
      h_min = 0.1;
      (* faster loss detection for a short wall-clock demo *)
    }
  in
  let rt =
    U.create ~loss ~seed:7 ~batch ~slot_size ~use_mmsg:(not no_mmsg) ()
  in
  let d = Lbrm_run.Scenario.loopback ~cfg ~base_port ~receivers:3 rt in
  Printf.printf
    "live UDP session on 127.0.0.1:%d-%d, %.0f%% injected datagram loss\n"
    base_port (base_port + 5) (100. *. loss);
  Printf.printf "transport: mmsg %s, gso %s, batch %d, slots %dB\n"
    (if U.mmsg_active rt then "on" else "off")
    (if U.gso_active rt then "on" else "off")
    batch slot_size;
  (* Send packets spaced over the first half of the run. *)
  let gap = seconds /. 2. /. float_of_int packets in
  for i = 1 to packets do
    Lbrm_run.Scenario.send d (Printf.sprintf "payload-%d" i);
    U.run_for rt ~seconds:gap
  done;
  U.run_for rt ~seconds:(seconds /. 2.);
  let ok = ref true in
  Array.iter
    (fun (r, port) ->
      let got = Lbrm.Receiver.delivered r in
      let rec_ = Lbrm.Receiver.recovered r in
      Printf.printf "receiver :%d  delivered %d/%d (%d via recovery)\n" port
        got packets rec_;
      if got <> packets then ok := false)
    d.receivers;
  let st = U.stats rt in
  Printf.printf "datagrams sent %d, artificially dropped %d\n" st.U.sent
    st.U.dropped;
  Printf.printf
    "transport: tx %d datagrams in %d batches, rx %d in %d batches, %d \
     acks merged\n"
    st.U.tx_datagrams st.U.tx_batches st.U.rx_datagrams st.U.rx_batches
    st.U.merged;
  let gso_d, mmsg_d, single_d = Lbrm_run.Sockmsg.tx_tiers () in
  Printf.printf
    "transport: tx tiers gso %d / sendmmsg %d / per-datagram %d; encode \
     failures %d, oversize %d\n"
    gso_d mmsg_d single_d st.U.encode_failures st.U.oversize;
  U.close rt;
  if !ok then begin
    print_endline "OK: receiver-reliable delivery over real sockets.";
    0
  end
  else begin
    print_endline "FAILED: incomplete delivery.";
    1
  end

let udp_cmd =
  let base_port =
    Arg.(value & opt int 47800 & info [ "port" ] ~doc:"Base UDP port.")
  in
  let packets =
    Arg.(value & opt int 10 & info [ "packets" ] ~doc:"Data packets to send.")
  in
  let loss =
    Arg.(
      value & opt float 0.25
      & info [ "loss" ] ~doc:"Injected datagram loss probability.")
  in
  let seconds =
    Arg.(
      value & opt float 4.
      & info [ "seconds" ] ~doc:"Wall-clock duration of the session.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~doc:"Datagrams staged per batched syscall (1-64).")
  in
  let slot_size =
    Arg.(
      value & opt int 2048
      & info [ "slot-size" ] ~doc:"Bytes per transport buffer slot.")
  in
  let no_mmsg =
    Arg.(
      value & flag
      & info [ "no-mmsg" ]
          ~doc:"Force the portable per-datagram sendto/recvfrom fallback.")
  in
  Cmd.v
    (Cmd.info "udp" ~doc:"Run a live LBRM session over loopback UDP")
    Term.(
      const udp $ base_port $ packets $ loss $ seconds $ batch $ slot_size
      $ no_mmsg)

(* ------------------------------------------------------------------ *)
(* traffic                                                             *)
(* ------------------------------------------------------------------ *)

let traffic dynamics terrain rate change freshness =
  let p =
    {
      Lbrm_dis.Scenario.dynamic_entities = dynamics;
      terrain_entities = terrain;
      dynamic_update_rate = rate;
      terrain_change_interval = change;
      freshness;
    }
  in
  let t = Lbrm_dis.Scenario.traffic_model p in
  Printf.printf "STOW-97-style traffic model (2.1.2)\n\n";
  Printf.printf "dynamic entity packets/s        : %12.0f\n" t.dynamic_pps;
  Printf.printf "terrain data packets/s          : %12.1f\n"
    t.terrain_data_pps;
  Printf.printf "fixed-heartbeat packets/s       : %12.0f\n"
    t.fixed_heartbeat_pps;
  Printf.printf "variable-heartbeat packets/s    : %12.0f\n"
    t.variable_heartbeat_pps;
  Printf.printf "heartbeat fraction (fixed)      : %12.2f\n"
    (Lbrm_dis.Scenario.heartbeat_fraction t);
  Printf.printf "fixed/variable heartbeat ratio  : %12.1f\n"
    (t.fixed_heartbeat_pps /. t.variable_heartbeat_pps);
  0

let traffic_cmd =
  let dynamics =
    Arg.(
      value & opt int 100_000
      & info [ "dynamics" ] ~doc:"Dynamic entity count.")
  in
  let terrain =
    Arg.(
      value & opt int 100_000 & info [ "terrain" ] ~doc:"Terrain entity count.")
  in
  let rate =
    Arg.(
      value & opt float 1.0
      & info [ "rate" ] ~doc:"Dynamic entity update rate (packets/s).")
  in
  let change =
    Arg.(
      value & opt float 120.
      & info [ "change" ] ~doc:"Mean seconds between terrain changes.")
  in
  let freshness =
    Arg.(
      value & opt float 0.25
      & info [ "freshness" ] ~doc:"Terrain freshness requirement (s).")
  in
  Cmd.v
    (Cmd.info "traffic" ~doc:"Print the DIS traffic arithmetic")
    Term.(const traffic $ dynamics $ terrain $ rate $ change $ freshness)

let () =
  let doc = "Log-Based Receiver-reliable Multicast (SIGCOMM '95)" in
  let info = Cmd.info "lbrm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info [ simulate_cmd; chaos_cmd; trace_cmd; udp_cmd; traffic_cmd ]))
