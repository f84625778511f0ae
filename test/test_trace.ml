(* The observability plane: typed trace events, sinks, deterministic
   JSONL rendering, causal timeline reconstruction, and the chaos
   invariants re-expressed as trace queries. *)

module T = Lbrm.Trace
module Tl = Lbrm.Timeline
module Chaos = Lbrm_run.Chaos
module Scenario = Lbrm_run.Scenario

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

(* ---- encoding: fixed field order, exact bytes ------------------------- *)

let jsonl_goldens () =
  let r at node ev = { T.at; node; ev } in
  check string "send"
    {|{"at":1.5,"node":7,"ev":"send","seq":42}|}
    (T.to_jsonl (r 1.5 7 (T.Send { seq = 42 })));
  check string "deliver"
    {|{"at":0.25,"node":3,"ev":"deliver","seq":9,"recovered":true}|}
    (T.to_jsonl (r 0.25 3 (T.Deliver { seq = 9; recovered = true })));
  check string "nack"
    {|{"at":2,"node":12,"ev":"nack_sent","dest":4,"level":1,"seqs":[5,6]}|}
    (T.to_jsonl (r 2.0 12 (T.Nack_sent { dest = 4; level = 1; seqs = [ 5; 6 ] })));
  check string "retrans unicast carries dest"
    {|{"at":3,"node":4,"ev":"retrans","seq":5,"mode":"unicast","dest":12}|}
    (T.to_jsonl (r 3.0 4 (T.Retrans { seq = 5; mode = T.R_unicast 12 })));
  check string "retrans site mcast"
    {|{"at":3,"node":4,"ev":"retrans","seq":5,"mode":"site_mcast"}|}
    (T.to_jsonl (r 3.0 4 (T.Retrans { seq = 5; mode = T.R_site_mcast })));
  check string "promotion"
    {|{"at":6.5,"node":1,"ev":"failover","step":"promoted","primary":9,"redeposits":3}|}
    (T.to_jsonl
       (r 6.5 1 (T.Failover_step (T.F_promoted { primary = 9; redeposits = 3 }))));
  (* %.17g floats: shortest-exact for representable values, full
     precision otherwise — the determinism contract. *)
  check string "float precision"
    {|{"at":0.10000000000000001,"node":0,"ev":"silence","elapsed":4.2000000000000002}|}
    (T.to_jsonl (r 0.1 0 (T.Silence { elapsed = 4.2 })))

(* ---- sinks ------------------------------------------------------------ *)

let null_sink_captures_nothing () =
  let sink = T.null () in
  check bool "disabled" false (T.is_on sink);
  (* emit through a disabled sink must be a no-op, not an error *)
  T.emit sink ~at:1.0 ~node:1 (T.Send { seq = 1 })

let collector_preserves_order () =
  let c = T.Collector.create () in
  let sink = T.Collector.sink c in
  check bool "enabled" true (T.is_on sink);
  for i = 1 to 5 do
    T.emit sink ~at:(float_of_int i) ~node:0 (T.Send { seq = i })
  done;
  check int "count" 5 (T.Collector.count c);
  check (Alcotest.list int) "emission order"
    [ 1; 2; 3; 4; 5 ]
    (List.map
       (fun r -> match r.T.ev with T.Send { seq } -> seq | _ -> -1)
       (T.Collector.records c))

let ring_wraps_and_counts_drops () =
  let ring = T.Ring.create ~capacity:4 in
  let sink = T.Ring.sink ring in
  for i = 1 to 10 do
    T.emit sink ~at:(float_of_int i) ~node:0 (T.Send { seq = i })
  done;
  check int "pushed" 10 (T.Ring.pushed ring);
  check int "dropped" 6 (T.Ring.dropped ring);
  check (Alcotest.list int) "last capacity records, oldest first"
    [ 7; 8; 9; 10 ]
    (List.map
       (fun r -> match r.T.ev with T.Send { seq } -> seq | _ -> -1)
       (T.Ring.records ring));
  (* under capacity: no wrap, no drops *)
  let small = T.Ring.create ~capacity:8 in
  let sink = T.Ring.sink small in
  for i = 1 to 3 do
    T.emit sink ~at:(float_of_int i) ~node:0 (T.Send { seq = i })
  done;
  check int "no drops" 0 (T.Ring.dropped small);
  check int "records" 3 (List.length (T.Ring.records small))

(* ---- timeline reconstruction on a synthetic trace --------------------- *)

let timeline_synthetic () =
  let r at node ev = { T.at; node; ev } in
  let records =
    [
      r 1.0 0 (T.Send { seq = 1 });
      r 1.1 9 (T.Gap_detected { seqs = [ 1 ] });
      r 1.2 9 (T.Nack_sent { dest = 5; level = 0; seqs = [ 1 ] });
      r 1.3 5 (T.Retrans { seq = 1; mode = T.R_unicast 9 });
      r 1.4 9 (T.Deliver { seq = 1; recovered = true });
      (* a second receiver loses the same seq, repaired by site mcast *)
      r 1.1 8 (T.Gap_detected { seqs = [ 2 ] });
      r 1.25 8 (T.Nack_sent { dest = 5; level = 0; seqs = [ 2 ] });
      r 1.35 5 (T.Retrans { seq = 2; mode = T.R_site_mcast });
      r 1.45 8 (T.Deliver { seq = 2; recovered = true });
      (* abandoned pursuit *)
      r 2.0 7 (T.Gap_detected { seqs = [ 3 ] });
      r 9.0 7 (T.Gave_up { seq = 3 });
    ]
  in
  let losses = Tl.build records in
  check int "three losses" 3 (List.length losses);
  let by_receiver node =
    List.find (fun (l : Tl.loss) -> l.Tl.receiver = node) losses
  in
  let l9 = by_receiver 9 in
  check bool "recovered" true (Tl.recovered l9);
  check (Alcotest.option (Alcotest.float 1e-9)) "latency"
    (Some 0.3) (Tl.latency l9);
  (match l9.Tl.repair with
  | Some { Tl.mode = T.R_unicast 9; from = 5; _ } -> ()
  | _ -> Alcotest.fail "expected unicast repair from logger 5");
  let l8 = by_receiver 8 in
  (match l8.Tl.repair with
  | Some { Tl.mode = T.R_site_mcast; _ } -> ()
  | _ -> Alcotest.fail "expected site-mcast repair");
  let l7 = by_receiver 7 in
  check bool "abandoned" true (Tl.abandoned l7);
  check bool "abandoned not recovered" false (Tl.recovered l7)

(* a unicast retransmission to another receiver must not be claimed *)
let timeline_unicast_addressing () =
  let r at node ev = { T.at; node; ev } in
  let records =
    [
      r 1.0 9 (T.Gap_detected { seqs = [ 1 ] });
      r 1.2 5 (T.Retrans { seq = 1; mode = T.R_unicast 8 });
      r 1.4 9 (T.Deliver { seq = 1; recovered = true });
    ]
  in
  match Tl.build records with
  | [ l ] ->
      check bool "recovered" true (Tl.recovered l);
      check bool "no repair attributed (unicast was for node 8)" true
        (l.Tl.repair = None)
  | _ -> Alcotest.fail "expected one loss"

(* ---- end-to-end: lossy run reconstructs full causal chains ------------ *)

let lossy_run () =
  let collector = T.Collector.create () in
  let d =
    Scenario.standard ~seed:7 ~initial_estimate:24.
      ~tail_loss:(fun _ -> Lbrm_sim.Loss.bernoulli 0.08)
      ~sink:(T.Collector.sink collector)
      ~sites:8 ~receivers_per_site:3 ()
  in
  Scenario.drive_periodic d ~interval:0.1 ~count:30 ();
  Scenario.run d ~until:30.;
  T.Collector.records collector

let timeline_end_to_end () =
  let events = lossy_run () in
  let losses = Tl.build events in
  check bool "losses occurred" true (List.length losses > 0);
  List.iter
    (fun (l : Tl.loss) ->
      (* every pursuit resolved within the horizon *)
      check bool "closed" true (Tl.recovered l || Tl.abandoned l);
      if Tl.recovered l then begin
        check bool "delivery after detection" true
          (match l.Tl.delivered_at with
          | Some at -> at >= l.Tl.detected_at
          | None -> false);
        (* a recovered loss with an attributed repair must show a causal
           chain: detection -> (nack) -> retransmission -> delivery.  A
           multicast repair may precede this receiver's own NACK (it can
           be triggered by a peer's), but a unicast repair addressed to
           this receiver answers its NACK and must follow it. *)
        match (l.Tl.repair, l.Tl.first_nack_at) with
        | Some rep, Some nack_at ->
            check bool "nack after detection" true (nack_at >= l.Tl.detected_at);
            check bool "retrans after detection" true
              (rep.Tl.at >= l.Tl.detected_at);
            (match rep.Tl.mode with
            | T.R_unicast dest when dest = l.Tl.receiver ->
                check bool "unicast repair after nack" true (rep.Tl.at >= nack_at)
            | _ -> ())
        | _ -> ()
      end)
    losses;
  (* the macro numbers agree with the receivers' own counters *)
  let recovered_losses = List.length (List.filter Tl.recovered losses) in
  check bool "some recoveries traced" true (recovered_losses > 0)

(* ---- chaos invariants as trace queries -------------------------------- *)

let primary_crash_exactly_one_promote () =
  let o = Chaos.primary_crash () in
  check (Alcotest.list string) "no violations" [] o.Chaos.violations;
  (* the acceptance query: exactly one Promote in the merged trace *)
  check int "exactly one Promote" 1
    (List.length (T.Query.promotions o.Chaos.events));
  (* and the losses in the trace all close *)
  let losses = Tl.build o.Chaos.events in
  List.iter
    (fun (l : Tl.loss) ->
      check bool "loss closed" true (Tl.recovered l || Tl.abandoned l);
      check bool "no abandoned recovery" false (Tl.abandoned l))
    losses;
  (* the F_suspected step precedes the promotion *)
  let first_suspect =
    List.find_opt
      (fun r ->
        match r.T.ev with
        | T.Failover_step T.F_suspected -> true
        | _ -> false)
      o.Chaos.events
  in
  match (first_suspect, T.Query.promotions o.Chaos.events) with
  | Some s, [ p ] -> check bool "suspected before promoted" true (s.T.at <= p.T.at)
  | _ -> Alcotest.fail "missing suspicion or promotion records"

let secondary_crash_rejoin_query () =
  let o = Chaos.secondary_crash () in
  check (Alcotest.list string) "no violations" [] o.Chaos.violations;
  check bool "adoptions recorded" true
    (T.Query.rediscovery_adoptions o.Chaos.events <> [])

let () =
  Alcotest.run "trace"
    [
      ( "encoding",
        [
          Alcotest.test_case "jsonl goldens" `Quick jsonl_goldens;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null sink" `Quick null_sink_captures_nothing;
          Alcotest.test_case "collector order" `Quick collector_preserves_order;
          Alcotest.test_case "ring wrap" `Quick ring_wraps_and_counts_drops;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "synthetic chains" `Quick timeline_synthetic;
          Alcotest.test_case "unicast addressing" `Quick
            timeline_unicast_addressing;
          Alcotest.test_case "lossy end-to-end" `Slow timeline_end_to_end;
        ] );
      ( "chaos queries",
        [
          Alcotest.test_case "exactly one Promote" `Slow
            primary_crash_exactly_one_promote;
          Alcotest.test_case "rejoin adoptions" `Slow
            secondary_crash_rejoin_query;
        ] );
    ]
