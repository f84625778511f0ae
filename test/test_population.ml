(* Aggregate receiver populations: binomial sampler statistics, model
   conservation invariants, and end-to-end scenarios where 10^3..10^6
   modeled receivers recover losses behind real tail circuits with
   tracer receivers cross-validating the aggregate. *)

module Rng = Lbrm_util.Rng
module Site_population = Lbrm_sim.Site_population
module Loss = Lbrm_sim.Loss
module Fault = Lbrm_sim.Fault
module Scenario = Lbrm_run.Scenario
module Population = List_view.Population

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Rng.binomial ------------------------------------------------------ *)

(* Sample mean and variance must match n*p and n*p*(1-p) across the
   sampler's three regimes (exact sum, geometric skip, normal approx). *)
let binomial_moments () =
  let cases =
    [
      (* n, p — chosen to hit every internal regime *)
      (10, 0.3); (16, 0.5); (100, 0.05); (1000, 0.01); (200, 0.9);
      (10000, 0.002); (50000, 0.1); (1000000, 0.005);
    ]
  in
  List.iter
    (fun (n, p) ->
      let rng = Rng.create ~seed:(n + int_of_float (p *. 1000.)) in
      let k = 3000 in
      let sum = ref 0. and sumsq = ref 0. in
      for _ = 1 to k do
        let x = Rng.binomial rng ~n ~p in
        Alcotest.(check bool)
          (Printf.sprintf "0 <= x <= n for n=%d p=%g" n p)
          true
          (x >= 0 && x <= n);
        let fx = float_of_int x in
        sum := !sum +. fx;
        sumsq := !sumsq +. (fx *. fx)
      done;
      let fk = float_of_int k in
      let mean = !sum /. fk in
      let var = (!sumsq /. fk) -. (mean *. mean) in
      let np = float_of_int n *. p in
      let v = np *. (1. -. p) in
      (* Sample mean is within 6 standard errors of n*p. *)
      let se = sqrt (v /. fk) in
      checkb
        (Printf.sprintf "mean of Binomial(%d,%g): |%g - %g| <= %g" n p mean
           np (6. *. se))
        true
        (Float.abs (mean -. np) <= (6. *. se) +. 1e-9);
      (* Sample variance within 20% of n*p*(1-p) (plus slack for tiny v). *)
      checkb
        (Printf.sprintf "variance of Binomial(%d,%g): %g vs %g" n p var v)
        true
        (Float.abs (var -. v) <= (0.2 *. v) +. 0.1))
    cases;
  (* Degenerate corners are exact. *)
  let rng = Rng.create ~seed:7 in
  checki "p=0 gives 0" 0 (Rng.binomial rng ~n:1000 ~p:0.);
  checki "p=1 gives n" 1000 (Rng.binomial rng ~n:1000 ~p:1.);
  checki "n=0 gives 0" 0 (Rng.binomial rng ~n:0 ~p:0.5)

let binomial_deterministic () =
  let draw seed =
    let rng = Rng.create ~seed in
    List.init 500 (fun i ->
        let n = 1 + (i * 37 mod 5000) in
        let p = float_of_int (1 + (i mod 97)) /. 100. in
        Rng.binomial rng ~n ~p)
  in
  checkb "same seed, same draws" true (draw 123 = draw 123);
  checkb "different seed differs" true (draw 123 <> draw 124)

let binomial_range =
  QCheck.Test.make ~count:500 ~name:"binomial stays within [0,n]"
    QCheck.(triple (int_bound 100000) (float_range 0.0 1.0) small_nat)
    (fun (n, p, seed) ->
      let rng = Rng.create ~seed in
      let x = Rng.binomial rng ~n ~p in
      x >= 0 && x <= n)

(* --- Site_population model invariants ---------------------------------- *)

let conserved m =
  Site_population.delivered m + Site_population.missing m
  + Site_population.gave_up m
  = Site_population.known m * Site_population.size m

(* Drive the model with an adversarial mix of out-of-order packets,
   repair rounds, heartbeats and abandons; the delivery ledger must
   balance after every step and tracer state must stay in range. *)
let model_conservation () =
  let rng = Rng.create ~seed:99 in
  let m =
    Site_population.create ~tracers:3 ~size:400 ~lan_loss:0.1
      ~rng:(Rng.split rng) ()
  in
  (* Live gaps, ascending: every seq the drive touches is in 1..90. *)
  let gap_seqs () =
    List.filter
      (fun seq -> Site_population.remaining m ~seq > 0)
      (List.init 90 succ)
  in
  let ops = 2000 in
  for i = 1 to ops do
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        (* fresh-ish packet, sometimes ahead of the stream *)
        ignore (Site_population.on_packet m ~seq:(1 + Rng.int rng 80))
    | 4 | 5 | 6 ->
        (* repair round over whatever is currently missing *)
        (match gap_seqs () with
        | [] -> ()
        | gaps ->
            let s = List.nth gaps (Rng.int rng (List.length gaps)) in
            ignore (Site_population.on_packet m ~seq:s))
    | 7 | 8 ->
        ignore (Site_population.on_heartbeat m ~seq:(1 + Rng.int rng 90))
    | _ -> (
        match gap_seqs () with
        | [] -> ()
        | s :: _ -> ignore (Site_population.abandon m ~seq:s)));
    checkb
      (Printf.sprintf "ledger balances after op %d" i)
      true (conserved m)
  done;
  checkb "distinct gaps bounded by known seqs" true
    (Site_population.distinct_gaps m <= Site_population.known m);
  let z = Site_population.agreement_z m in
  checkb "agreement z is finite" true (Float.is_finite z);
  checkb "tracer agreement within bounds over adversarial drive" true
    (Float.abs z <= 5.);
  Array.iter
    (fun fed -> checkb "tracer fed at most known seqs (plus repairs)" true
        (fed >= 0))
    (Site_population.tracer_fed m)

(* --- one recovery ladder ----------------------------------------------- *)

module Io = Lbrm.Io
module Message = Lbrm_wire.Message

(* The ladder's observable output: NACK, Who_is_primary and discovery
   sends, the channel's Join/Leave, and the K_nack_* and K_discovery
   timer actions. *)
let ladder_action = function
  | Io.Send (Io.To_addr a, Message.Nack { seqs }) ->
      Some
        (Printf.sprintf "nack->%d [%s]" a
           (String.concat ";" (List.map string_of_int seqs)))
  | Io.Send (Io.To_addr a, Message.Who_is_primary) ->
      Some (Printf.sprintf "who_is_primary->%d" a)
  | Io.Set_timer (Io.K_nack_flush, d) -> Some (Printf.sprintf "set flush %g" d)
  | Io.Set_timer (Io.K_nack_escalate s, d) ->
      Some (Printf.sprintf "set escalate %d %g" s d)
  | Io.Cancel_timer Io.K_nack_flush -> Some "cancel flush"
  | Io.Cancel_timer (Io.K_nack_escalate s) ->
      Some (Printf.sprintf "cancel escalate %d" s)
  | Io.Send (Io.To_group { group; ttl }, Message.Discovery_query { nonce }) ->
      Some
        (Printf.sprintf "discovery_query->g%d ttl %s nonce %d" group
           (Option.fold ~none:"-" ~some:string_of_int ttl)
           nonce)
  | Io.Set_timer (Io.K_discovery n, d) ->
      Some (Printf.sprintf "set discovery %d %g" n d)
  | Io.Cancel_timer (Io.K_discovery n) ->
      Some (Printf.sprintf "cancel discovery %d" n)
  | Io.Join g -> Some (Printf.sprintf "join g%d" g)
  | Io.Leave g -> Some (Printf.sprintf "leave g%d" g)
  | _ -> None

type ladder_op =
  | Data of int
  | Beat of int * bool  (** seq, carries the payload *)
  | Repair of int
  | New_primary of int
  | Flush
  | Escalate of int
  | Silence
  | Reply of int * int  (** discovery nonce, the logger that answers *)
  | Ring of int  (** a discovery round's timeout, by nonce *)

let show_op = function
  | Data s -> Printf.sprintf "Data %d" s
  | Beat (s, p) -> Printf.sprintf "Beat (%d, %b)" s p
  | Repair s -> Printf.sprintf "Repair %d" s
  | New_primary l -> Printf.sprintf "New_primary %d" l
  | Flush -> "Flush"
  | Escalate s -> Printf.sprintf "Escalate %d" s
  | Silence -> "Silence"
  | Reply (n, l) -> Printf.sprintf "Reply (%d, %d)" n l
  | Ring n -> Printf.sprintf "Ring %d" n

(* A retry limit of 1..3 per level, 1..4 unanswered level-0 rounds
   before rediscovery, the channel on or off, and a stream of up to 120
   steps over seqs 1..10: short enough that one seq regularly climbs the
   whole two-level hierarchy to Who_is_primary and abandonment, and that
   a dead nearest logger is replaced.  A search's rounds carry nonces
   1..4 (TTL 1, 2, 4, 8). *)
let ladder_case =
  let open QCheck.Gen in
  let seq = int_range 1 10 and nonce = int_range 1 4 in
  quad (int_range 1 3) (int_range 1 4) bool
    (list_size (int_range 1 120)
       (frequency
          [
            (3, map (fun s -> Data s) seq);
            (2, map2 (fun s p -> Beat (s, p)) (int_range 0 10) bool);
            (2, map (fun s -> Repair s) seq);
            (1, map (fun l -> New_primary l) (int_range 5 6));
            (4, return Flush);
            (6, map (fun s -> Escalate s) (int_range 1 6));
            (1, return Silence);
            (2, map2 (fun n l -> Reply (n, l)) nonce (int_range 4 5));
            (2, map (fun n -> Ring n) nonce);
          ]))

(* A receiver and a one-member lossless population, fed the same
   arrivals and timer firings, must run the same ladder: one NACK copy
   per gap, identical sends, channel subscriptions, rediscovery steps
   and timer actions in the same order.  The silence deadline is short
   enough for the watchdog to start a search within a case. *)
let receiver_population_differential =
  QCheck.Test.make ~count:300
    ~name:"receiver and 1-member population NACK alike"
    (QCheck.make
       ~print:QCheck.Print.(quad int int bool (list show_op))
       ladder_case)
    (fun (nack_retry_limit, retrans_retry_limit, channel, ops) ->
      let cfg =
        {
          Lbrm.Config.default with
          nack_retry_limit;
          retrans_retry_limit;
          rediscovery_silence = 20.;
          rchannel_group = (if channel then Some 7 else None);
        }
      in
      let self = 9 and source = 1 and loggers = [ 2; 3 ] in
      let r = Lbrm.Receiver.create cfg ~self ~source ~loggers in
      let model =
        Site_population.create ~tracers:0 ~size:1 ~lan_loss:0.
          ~rng:(Rng.create ~seed:1) ()
      in
      let p =
        Population.create ~cfg ~self ~source ~loggers ~model
          ~on_feed:(fun ~tracer:_ ~now:_ ~src:_ _ -> ())
          ()
      in
      let payload = Lbrm_wire.Payload.of_string "x" in
      let step (rs, ps) (i, op) =
        let now = float_of_int (i + 1) in
        let msg src m =
          ( List_view.Receiver.handle_message r ~now ~src m,
            Population.handle_message p ~now ~src m )
        in
        let timer k =
          ( List_view.Receiver.handle_timer r ~now k,
            Population.handle_timer p ~now k )
        in
        let ra, pa =
          match op with
          | Data seq -> msg source (Message.Data { seq; epoch = 0; payload })
          | Beat (seq, carries) ->
              msg source
                (Message.Heartbeat
                   {
                     seq;
                     hb_index = i;
                     epoch = 0;
                     payload = (if carries then Some payload else None);
                   })
          | Repair seq -> msg 2 (Message.Retrans { seq; epoch = 0; payload })
          | New_primary logger -> msg source (Message.Primary_is { logger })
          | Flush -> timer Io.K_nack_flush
          | Escalate seq -> timer (Io.K_nack_escalate seq)
          | Silence -> timer Io.K_silence
          | Reply (nonce, logger) ->
              msg logger (Message.Discovery_reply { nonce; logger })
          | Ring nonce -> timer (Io.K_discovery nonce)
        in
        ( List.rev_append (List.filter_map ladder_action ra) rs,
          List.rev_append (List.filter_map ladder_action pa) ps )
      in
      let rs, ps =
        List.fold_left step ([], []) (List.mapi (fun i o -> (i, o)) ops)
      in
      let rs = List.rev rs and ps = List.rev ps in
      rs = ps
      || QCheck.Test.fail_reportf "receiver:\n  %s\npopulation:\n  %s"
           (String.concat "\n  " rs) (String.concat "\n  " ps))

(* The copy rule: with remcast_request_threshold 3, seqs missed by 1, 2
   and 5 receivers go out as NACK copies [a;b;c], [b;c], [c]. *)
let copy_rule () =
  let cfg = { Lbrm.Config.default with remcast_request_threshold = 3 } in
  let missing = function 1 -> 1 | 2 -> 2 | 3 -> 5 | _ -> 0 in
  let pursuit =
    Lbrm.Pursuit.create cfg ~self:9 ~source:1 ~loggers:[ 2 ] ~missing
      ~write_off:ignore ~highest:(fun () -> 0)
  in
  ignore (List_view.Pursuit.open_ pursuit ~now:0. [ 1; 2; 3 ]);
  let nacks =
    List.filter_map
      (function
        | Io.Send (_, Message.Nack { seqs }) -> Some seqs | _ -> None)
      (List_view.Pursuit.handle_timer pursuit ~now:0. Io.K_nack_flush)
  in
  Alcotest.(check (list (list int)))
    "copy c carries the seqs wanting more than c copies"
    [ [ 1; 2; 3 ]; [ 2; 3 ]; [ 3 ] ]
    nacks;
  checki "one wire NACK per copy" 3 (Lbrm.Pursuit.nacks_sent pursuit)

(* --- end-to-end scenarios ---------------------------------------------- *)

let last_seq = 30

let drive d =
  Scenario.drive_periodic d ~interval:0.1 ~count:last_seq ();
  Scenario.run d ~until:90.

(* The runtest-enforced cross-validation: tracer receivers, fed exactly
   the sampled outcomes, must agree with the aggregate within binomial
   confidence bounds, and the whole deployment must converge. *)
let population_scenario_recovers () =
  let d =
    Scenario.standard ~seed:11 ~initial_estimate:2000. ~sites:4
      ~receivers_per_site:2
      ~site_population:(Scenario.population_spec ~members:500 ~lan_loss:0.01 ())
      ~tail_loss:(fun _ -> Loss.bernoulli 0.02)
      ()
  in
  drive d;
  checki "four populations deployed" 4 (Array.length d.populations);
  checki "two tracers per site" 8 (Array.length d.tracer_receivers);
  checki "nothing missing anywhere (multiplicity-weighted)" 0
    (Scenario.total_missing d);
  for seq = 1 to last_seq do
    checkb
      (Printf.sprintf "seq %d delivered everywhere incl. populations" seq)
      true
      (Scenario.delivered_everywhere d seq)
  done;
  Array.iter
    (fun (p, _) ->
      let m = Population.model p in
      checkb "population ledger balances" true (conserved m);
      checki "population saw the whole stream" last_seq
        (Site_population.known m);
      let z = Site_population.agreement_z m in
      checkb
        (Printf.sprintf "tracer/aggregate agreement |z|=%g <= 4.5" z)
        true
        (Float.abs z <= 4.5);
      (* Populations actually exercised the recovery path. *)
      checkb "population recovered losses" true
        (Site_population.recovered m >= 0
        && Site_population.gave_up m = 0))
    d.populations;
  (* Tracer machines ran the real protocol to completion. *)
  Array.iter
    (fun (r, _) ->
      checki "tracer receiver has no gaps" 0
        (List.length (Lbrm.Receiver.missing r));
      checkb "tracer receiver delivered the stream" true
        (Lbrm.Receiver.delivered r >= last_seq))
    d.tracer_receivers

(* Populations under fault injection: a site partition makes a whole
   population miss packets (recovered after heal), and crash/restart of
   a population node rebuilds it for a true rejoin. *)
let population_faults () =
  let d =
    Scenario.standard ~seed:23 ~initial_estimate:1000. ~sites:3
      ~receivers_per_site:1
      ~site_population:(Scenario.population_spec ~members:200 ~lan_loss:0.005 ())
      ~tail_loss:(fun _ -> Loss.bernoulli 0.01)
      ()
  in
  let pop_node = snd d.populations.(1) in
  Scenario.schedule_faults d
    (Fault.partition_site d.wan ~site:2 ~t0:0.45 ~t1:1.4
    @ Fault.outage ~at:0.9 ~downtime:0.8 pop_node);
  drive d;
  let p1, _ = d.populations.(1) in
  let m1 = Population.model p1 in
  checkb "restarted population is a fresh machine (rejoined from scratch)"
    true
    (Site_population.known m1 = last_seq);
  checki "nothing missing after partition heals and node rejoins" 0
    (Scenario.total_missing d);
  checkb "last packet delivered everywhere" true
    (Scenario.delivered_everywhere d last_seq);
  Array.iter
    (fun (p, _) ->
      let m = Population.model p in
      checkb "ledger balances after faults" true (conserved m);
      checkb "agreement holds after faults" true
        (Float.abs (Site_population.agreement_z m) <= 4.5))
    d.populations

let () =
  Alcotest.run "population"
    [
      ( "binomial",
        [
          Alcotest.test_case "moments match analytic" `Quick binomial_moments;
          Alcotest.test_case "byte-deterministic per seed" `Quick
            binomial_deterministic;
          QCheck_alcotest.to_alcotest binomial_range;
        ] );
      ( "model",
        [ Alcotest.test_case "delivery ledger conserved" `Quick
            model_conservation ] );
      ( "ladder",
        [
          QCheck_alcotest.to_alcotest receiver_population_differential;
          Alcotest.test_case "NACK copies follow multiplicity" `Quick copy_rule;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "1k-receiver deployment recovers, tracers agree"
            `Quick population_scenario_recovers;
          Alcotest.test_case "partition and crash/restart of populations"
            `Quick population_faults;
        ] );
    ]
