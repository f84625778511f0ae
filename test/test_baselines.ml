(* Baseline protocols: wb/SRM-style recovery and positive-ACK. *)

module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Loss = Lbrm_sim.Loss
module Topo = Lbrm_sim.Topo
module Builders = Lbrm_sim.Builders
module Metrics = Lbrm_util.Metrics
module Srm = Lbrm_baselines.Srm
module Pos_ack = Lbrm_baselines.Pos_ack

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let mk_wan ~sites ~hosts_per_site ~seed size_of =
  let wan = Builders.dis_wan ~sites ~hosts_per_site () in
  let engine = Engine.create ~seed () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of () in
  let metrics = Metrics.create () in
  (wan, engine, net, metrics)

(* ---- SRM ---- *)

let srm_deploy ~sites ~hosts_per_site ~seed =
  let wan, engine, net, metrics =
    mk_wan ~sites ~hosts_per_site ~seed Srm.size_of
  in
  let source = wan.sites.(0).hosts.(0) in
  let members =
    List.filter (fun h -> h <> source) (Builders.all_hosts wan)
  in
  let t =
    Srm.deploy ~net ~metrics ~config:Srm.default_config ~group:1 ~source ~members
  in
  (wan, engine, metrics, t, source, members)

let srm_lossless_delivery () =
  let _, engine, _, t, _, members = srm_deploy ~sites:3 ~hosts_per_site:3 ~seed:1 in
  for i = 1 to 5 do
    ignore i;
    Srm.send t (Printf.sprintf "pkt%d" i)
  done;
  Engine.run ~until:10. engine;
  List.iter (fun m -> checki "all 5" 5 (Srm.delivered_count t m)) members;
  checkb "seq 3 everywhere" true (Srm.all_have t 3)

let srm_recovers_losses () =
  let wan, engine, metrics, t, _, _ =
    srm_deploy ~sites:4 ~hosts_per_site:3 ~seed:2
  in
  (* Site 2 loses a window; session messages reveal it; the group repairs. *)
  Topo.set_link_loss wan.sites.(2).tail_down (Loss.burst_windows [ (0.9, 1.1) ]);
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> Srm.send t "lost-one"));
  ignore (Engine.schedule engine ~delay:3.0 (fun () -> Srm.send t "later"));
  Engine.run ~until:30. engine;
  checkb "everyone recovered seq 1" true (Srm.all_have t 1);
  checkb "requests were multicast" true (Metrics.count metrics "srm.request_mcast" >= 1);
  checkb "repairs were multicast" true (Metrics.count metrics "srm.repair_mcast" >= 1)

let srm_repairs_are_global () =
  (* The defining wb property (§6): a loss confined to one site still
     makes every member process multicast repair traffic. *)
  let wan, engine, metrics, t, _, _ =
    srm_deploy ~sites:5 ~hosts_per_site:4 ~seed:3
  in
  Topo.set_link_loss wan.sites.(4).tail_down (Loss.burst_windows [ (0.9, 1.1) ]);
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> Srm.send t "x"));
  ignore (Engine.schedule engine ~delay:3.0 (fun () -> Srm.send t "y"));
  Engine.run ~until:30. engine;
  checkb "everyone has both" true (Srm.all_have t 1 && Srm.all_have t 2);
  (* 19 members (5*4 minus source) plus source; a request + repair pair
     multicast to all of them means >= ~2 * member count control
     deliveries, even though only site 4 lost anything. *)
  let msgs = Metrics.count metrics "srm.member_msgs" in
  checkb
    (Printf.sprintf "global control load (%d msgs) despite local loss" msgs)
    true (msgs >= 20)

let srm_suppression_limits_duplicates () =
  (* All 8 receivers of a site lose the same packet: randomized timers
     should suppress most duplicate requests. *)
  let wan, engine, metrics, t, _, _ =
    srm_deploy ~sites:2 ~hosts_per_site:8 ~seed:4
  in
  Topo.set_link_loss wan.sites.(1).tail_down (Loss.burst_windows [ (0.9, 1.1) ]);
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> Srm.send t "x"));
  ignore (Engine.schedule engine ~delay:3.0 (fun () -> Srm.send t "y"));
  Engine.run ~until:30. engine;
  checkb "recovered" true (Srm.all_have t 1);
  let reqs = Metrics.count metrics "srm.request_mcast" in
  checkb (Printf.sprintf "suppression held requests to %d (< 8)" reqs) true
    (reqs >= 1 && reqs < 8)

(* ---- Positive ACK ---- *)

let posack_deploy ~sites ~hosts_per_site ~seed =
  let wan, engine, net, metrics =
    mk_wan ~sites ~hosts_per_site ~seed Pos_ack.size_of
  in
  let source = wan.sites.(0).hosts.(0) in
  let receivers = List.filter (fun h -> h <> source) (Builders.all_hosts wan) in
  let t =
    Pos_ack.deploy ~net ~metrics ~config:Pos_ack.default_config ~group:1 ~source
      ~receivers
  in
  (wan, engine, metrics, t, List.length receivers)

let posack_ack_implosion () =
  let _, engine, metrics, t, receivers =
    posack_deploy ~sites:5 ~hosts_per_site:5 ~seed:5
  in
  Pos_ack.send t "hello";
  Engine.run ~until:5. engine;
  checkb "fully acked" true (Pos_ack.acked_by_all t 1);
  (* The implosion: one ACK per receiver arrives at the source. *)
  checki "one ack per receiver" receivers (Pos_ack.acks_at_source t);
  checki "completion counted" 1 (Metrics.count metrics "posack.complete")

let posack_retransmits_to_silent () =
  let wan, engine, metrics, t, _ =
    posack_deploy ~sites:3 ~hosts_per_site:3 ~seed:6
  in
  Topo.set_link_loss wan.sites.(2).tail_down (Loss.burst_windows [ (0.0, 0.2) ]);
  ignore (Engine.schedule engine ~delay:0.1 (fun () -> Pos_ack.send t "x"));
  Engine.run ~until:10. engine;
  checkb "eventually complete" true (Pos_ack.acked_by_all t 1);
  checkb "unicast retransmissions happened" true
    (Metrics.count metrics "posack.retrans" >= 1)


let srm_session_messages_reveal_loss () =
  (* The last packet of a burst is lost: no later data packet exists to
     open a gap, so only the fixed-interval session message (the wb-style
     "fixed heartbeat", 6) can reveal it. *)
  let wan, engine, metrics, t, _, _ = srm_deploy ~sites:2 ~hosts_per_site:3 ~seed:8 in
  Topo.set_link_loss wan.sites.(1).tail_down (Loss.burst_windows [ (2.9, 3.1) ]);
  ignore (Engine.schedule engine ~delay:1. (fun () -> Srm.send t "one"));
  ignore (Engine.schedule engine ~delay:2. (fun () -> Srm.send t "two"));
  ignore (Engine.schedule engine ~delay:3. (fun () -> Srm.send t "three"));
  Engine.run ~until:30. engine;
  checkb "final packet recovered" true (Srm.all_have t 3);
  checkb "recovery happened" true (Metrics.count metrics "srm.recovered" >= 1)

let posack_gives_up_after_retries () =
  (* A permanently dead receiver: the sender burns its retry budget and
     abandons the packet rather than retrying forever. *)
  let wan, engine, metrics, t, _ = posack_deploy ~sites:2 ~hosts_per_site:2 ~seed:9 in
  (* Cut one receiver off for good. *)
  let dead = wan.sites.(1).hosts.(1) in
  (match Topo.find_link wan.topo ~src:wan.sites.(1).gateway ~dst:dead with
  | Some l -> Topo.set_link_loss l (Loss.bernoulli 1.)
  | None -> Alcotest.fail "no link");
  Pos_ack.send t "x";
  Engine.run ~until:30. engine;
  (* acked_by_all turns true once the sender stops tracking — here
     because the retry budget ran out, which "posack.complete" = 0
     distinguishes from genuine completion. *)
  checkb "tracking abandoned" true (Pos_ack.acked_by_all t 1);
  checkb "retried up to the budget" true
    (Metrics.count metrics "posack.retrans"
     >= Pos_ack.default_config.Pos_ack.max_retries);
  checki "never counted complete" 0 (Metrics.count metrics "posack.complete")

let () =
  Alcotest.run "baselines"
    [
      ( "srm",
        [
          Alcotest.test_case "lossless delivery" `Quick srm_lossless_delivery;
          Alcotest.test_case "recovers losses" `Quick srm_recovers_losses;
          Alcotest.test_case "repairs reach everyone (crying baby)" `Quick
            srm_repairs_are_global;
          Alcotest.test_case "suppression limits duplicates" `Quick
            srm_suppression_limits_duplicates;
          Alcotest.test_case "session messages reveal tail loss" `Quick
            srm_session_messages_reveal_loss;
        ] );
      ( "pos_ack",
        [
          Alcotest.test_case "ACK implosion at source" `Quick
            posack_ack_implosion;
          Alcotest.test_case "retransmits to silent receivers" `Quick
            posack_retransmits_to_silent;
          Alcotest.test_case "gives up after the retry budget" `Quick
            posack_gives_up_after_retries;
        ] );
    ]
