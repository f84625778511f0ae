(* Quickstart: a complete LBRM deployment in ~40 lines of user code.

   One source behind a primary logger, 3 sites x 4 receivers behind
   lossy T1 tail circuits, 20 data packets.  Every receiver ends up with
   every packet despite 15 % loss, recovering from its site's secondary
   logger in a few milliseconds.

   Run with: dune exec examples/quickstart.exe *)

module Scenario = Lbrm_run.Scenario
module Loss = Lbrm_sim.Loss
module Metrics = Lbrm_util.Metrics
module Stats = Lbrm_util.Stats

let () =
  Printf.printf "LBRM quickstart: 3 sites x 4 receivers, 15%% tail loss\n\n";
  let d =
    Scenario.standard ~seed:2024 ~sites:3 ~receivers_per_site:4
      ~initial_estimate:3. (* skip the probing phase for a quick start *)
      ~tail_loss:(fun _site -> Loss.bernoulli 0.15)
      ()
  in
  (* 20 application payloads, one every half second. *)
  Scenario.drive_periodic d ~interval:0.5 ~count:20 ();
  Scenario.run d ~until:60.;

  (* Every receiver should now hold every packet. *)
  let complete = ref 0 in
  Array.iter
    (fun (r, _) ->
      if Lbrm.Receiver.delivered r = 20 then incr complete)
    d.receivers;
  Printf.printf "receivers with all 20 packets : %d / %d\n" !complete
    (Array.length d.receivers);
  Printf.printf "packets still missing         : %d\n"
    (Scenario.total_missing d);

  let metrics = Scenario.metrics d in
  Printf.printf "\nrecovery activity\n";
  Printf.printf "  gaps detected               : %d\n"
    (Metrics.count metrics "loss.gaps");
  Printf.printf "  packets repaired            : %d\n"
    (Metrics.count metrics "loss.recovered");
  let lat = Metrics.sample metrics "recovery_latency" in
  if Stats.Sample.count lat > 0 then
    Printf.printf "  recovery latency            : mean %.1f ms, p99 %.1f ms\n"
      (1e3 *. Stats.Sample.mean lat)
      (1e3 *. Stats.Sample.percentile lat 99.);
  Printf.printf "  NACKs sent                  : %d\n"
    (Metrics.count metrics "sent.nack");
  Printf.printf "  repairs sent                : %d\n"
    (Metrics.count metrics "sent.retrans");
  Printf.printf "  heartbeats sent by source   : %d\n"
    (Lbrm.Source.heartbeats_sent d.source);
  Printf.printf "\nsource buffer: %d payloads retained, released through seq %d\n"
    (Lbrm.Source.retained d.source)
    (Lbrm.Source.released d.source);
  if !complete = Array.length d.receivers && Scenario.total_missing d = 0 then
    print_endline "\nOK: receiver-reliable delivery complete."
  else begin
    print_endline "\nFAILED: some receivers are incomplete.";
    exit 1
  end
