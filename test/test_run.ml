(* The runtime layer itself: action execution semantics (timer re-arm,
   cancellation, Join/Leave, per-kind accounting) written once and run
   over both transports of the shared agent host — the simulator and
   loopback UDP — plus handler combination and the canonical
   deployments' bookkeeping. *)

module Sim_runtime = Lbrm_run.Sim_runtime
module Udp_runtime = Lbrm_run.Udp_runtime
module Handlers = Lbrm_run.Handlers
module Scenario = Lbrm_run.Scenario
module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Builders = Lbrm_sim.Builders
module Trace = Lbrm_sim.Trace
module Metrics = Lbrm_util.Metrics
module Message = Lbrm_wire.Message
module Io = Lbrm.Io

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* Agent [i] of a rig, whatever its transport. *)
type rig = {
  addr : int -> Message.address;
  add : int -> Handlers.t -> unit;
  perform : int -> Io.out -> unit;
  settle : unit -> unit; (* until in-flight traffic and due timers are done *)
  run_for : float -> unit; (* a bounded run, for agents that never go idle *)
  slack : float; (* how late a timer may fire: 0 in virtual time *)
  count : string -> int; (* summed over the transport's registries *)
  close : unit -> unit;
}

let sim_rig () =
  let topo, _, hosts = Builders.lan ~hosts:3 () in
  let engine = Engine.create ~seed:71 () in
  let net = Net.create ~engine ~topo ~size_of:Message.wire_size () in
  let trace = Trace.create () in
  let rt = Sim_runtime.create ~net ~trace () in
  {
    addr = (fun i -> hosts.(i));
    add = (fun i h -> Sim_runtime.add_agent rt ~node:hosts.(i) h);
    perform = (fun i actions -> Sim_runtime.perform rt ~node:hosts.(i) actions);
    settle = (fun () -> Sim_runtime.run rt);
    run_for =
      (fun s -> Sim_runtime.run ~until:(Sim_runtime.now rt +. s) rt);
    slack = 0.;
    count = Trace.get trace;
    close = ignore;
  }

(* Sandboxes without loopback sockets skip (not fail) the UDP runs:
   socket availability is an environment fact, not a regression. *)
let sockets_available =
  lazy
    (match Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 with
    | s ->
        let ok =
          match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) with
          | () -> true
          | exception Unix.Unix_error _ -> false
        in
        Unix.close s;
        ok
    | exception Unix.Unix_error _ -> false)

let udp_rig ~base_port () =
  if not (Lazy.force sockets_available) then Alcotest.skip ();
  let window = 0.15 in
  let rt = Udp_runtime.create () in
  let port i = base_port + i in
  {
    addr = port;
    add = (fun i h -> Udp_runtime.add_agent rt ~port:(port i) h);
    perform = (fun i actions -> Udp_runtime.perform rt ~port:(port i) actions);
    settle = (fun () -> Udp_runtime.run_for rt ~seconds:window);
    run_for = (fun seconds -> Udp_runtime.run_for rt ~seconds);
    slack = window;
    count =
      (fun name ->
        List.fold_left
          (fun acc (_, m) -> acc + Metrics.count m name)
          0
          (Udp_runtime.agent_metrics rt));
    close = (fun () -> Udp_runtime.close rt);
  }

(* Handlers that act never return this one, always empty, buffer. *)
let no_actions = Io.out ()

let null_handlers ?(on_timer = fun ~now:_ _ -> no_actions) () =
  {
    Handlers.on_message = (fun ~now:_ ~src:_ _ -> no_actions);
    on_timer;
    on_deliver = None;
    on_notice = None;
  }

let timer_rearm_semantics rig =
  let fired = ref [] in
  let on_timer ~now key =
    fired := (now, key) :: !fired;
    no_actions
  in
  rig.add 0 (null_handlers ~on_timer ());
  rig.perform 0
    (Io.of_list
       [
         Io.Set_timer (Io.K_app "x", 0.02);
         Io.Set_timer (Io.K_app "x", 0.05) (* re-arm replaces *);
         Io.Set_timer (Io.K_app "y", 0.01);
         Io.Cancel_timer (Io.K_app "y");
       ]);
  rig.settle ();
  rig.close ();
  (match !fired with
  | [ (at, Io.K_app "x") ] ->
      checkb "not before the re-armed deadline" true (at >= 0.05 -. 1e-9);
      checkb "at the re-armed deadline, within the transport's slack" true
        (at <= 0.05 +. rig.slack +. 1e-9)
  | _ -> Alcotest.fail "expected exactly one firing of x");
  checkb "cancelled never fired" true
    (not (List.exists (fun (_, k) -> k = Io.K_app "y") !fired))

(* A live key re-armed many times, to deadlines both later and earlier
   than its current one, fires once, at the last deadline: the
   watchdog pattern, where every arrival pushes the timer out. *)
let timer_rearm_many rig =
  let fired = ref [] in
  let on_timer ~now key =
    fired := (now, key) :: !fired;
    no_actions
  in
  rig.add 0 (null_handlers ~on_timer ());
  let delays = [| 0.03; 0.08; 0.01; 0.06 |] in
  for i = 0 to 49 do
    rig.perform 0 (Io.of_list [ Io.Set_timer (Io.K_silence, delays.(i mod 4)) ])
  done;
  rig.perform 0 (Io.of_list [ Io.Set_timer (Io.K_silence, 0.04) ]);
  rig.settle ();
  rig.close ();
  match !fired with
  | [ (at, Io.K_silence) ] ->
      checkb "not before the last deadline" true (at >= 0.04 -. 1e-9);
      checkb "at the last deadline, within the transport's slack" true
        (at <= 0.04 +. rig.slack +. 1e-9)
  | l ->
      Alcotest.failf "expected exactly one firing, got %d" (List.length l)

(* Equal deadlines fire in the order they were armed, and a re-armed
   key takes its turn afresh: three keys armed with one delay in one
   call, then the first re-armed, fire 2, 3, 1 on either transport. *)
let equal_deadline_ties rig =
  let fired = ref [] in
  let on_timer ~now:_ key =
    fired := key :: !fired;
    no_actions
  in
  rig.add 0 (null_handlers ~on_timer ());
  let key i = Io.K_app (string_of_int i) in
  rig.perform 0
    (Io.of_list
       [
         Io.Set_timer (key 1, 0.02);
         Io.Set_timer (key 2, 0.02);
         Io.Set_timer (key 3, 0.02);
         Io.Set_timer (key 1, 0.02);
       ]);
  rig.settle ();
  rig.close ();
  Alcotest.(check (list string))
    "fire order" [ "2"; "3"; "1" ]
    (List.rev_map
       (function Io.K_app s -> s | _ -> Alcotest.fail "unexpected key")
       !fired)

let join_leave_actions rig =
  let got = ref 0 in
  rig.add 0 (null_handlers ());
  rig.add 1
    {
      (null_handlers ()) with
      Handlers.on_message =
        (fun ~now:_ ~src:_ _ ->
          incr got;
          no_actions);
    };
  (* Agent 1 joins group 5 via an action, gets one multicast, leaves,
     misses the second. *)
  let multicast () =
    rig.perform 0
      (Io.of_list
         [
           Io.Send
             (Io.To_group { group = 5; ttl = None }, Message.Who_is_primary);
         ])
  in
  rig.perform 1 (Io.of_list [ Io.Join 5 ]);
  multicast ();
  rig.settle ();
  checki "received while joined" 1 !got;
  rig.perform 1 (Io.of_list [ Io.Leave 5 ]);
  multicast ();
  rig.settle ();
  rig.close ();
  checki "not received after leaving" 1 !got

(* The same action list on either transport; the host's counters. *)
let activity_names =
  [ "sent.nack"; "recv.nack"; "app.delivered"; "app.recovered" ]

let run_activity rig =
  rig.add 0 (null_handlers ());
  rig.add 1 (null_handlers ());
  rig.perform 0
    (Io.of_list
       [
         Io.Send (Io.To_addr (rig.addr 1), Message.Nack { seqs = [ 1 ] });
         Io.Deliver { seq = 1; payload = "x"; recovered = true };
         Io.Deliver { seq = 2; payload = "y"; recovered = false };
         Io.Notify (Io.N_gap [ 1; 2 ]);
       ]);
  rig.settle ();
  let counts = List.map (fun n -> (n, rig.count n)) activity_names in
  let gaps = rig.count "loss.gaps" in
  rig.close ();
  (counts, gaps)

let expected_activity =
  [
    ("sent.nack", 1);
    ("recv.nack", 1);
    ("app.delivered", 2);
    ("app.recovered", 1);
  ]

let counts_t = Alcotest.(list (pair string int))

let trace_records_activity () =
  let counts, gaps = run_activity (sim_rig ()) in
  Alcotest.check counts_t "host counters" expected_activity counts;
  checki "gap notice counted" 2 gaps

let transports_count_alike () =
  let sim, _ = run_activity (sim_rig ()) in
  let udp, gaps = run_activity (udp_rig ~base_port:48720 ()) in
  Alcotest.check counts_t "udp counts as the simulator does" sim udp;
  Alcotest.check counts_t "and as expected" expected_activity udp;
  checki "notices are recorded on sockets too" 2 gaps

(* An application callback re-enters the machine being drained: a
   [Notify] makes the app call into the same machine and perform the
   nested call's actions before the outer drain goes on.  Every action
   of both calls runs once, in order, and the buffer ends empty — for a
   call the host performs and for one it receives. *)
let nested_call_during_drain rig =
  let out = Io.out () in
  let call actions =
    Io.begin_call out;
    List.iter (Io.push out) actions;
    out
  in
  let deliver seq = Io.Deliver { seq; payload = ""; recovered = false } in
  let ran = ref [] in
  let outer () = call [ deliver 1; Io.Notify (Io.N_estimate 1.); deliver 2 ] in
  rig.add 0
    {
      Handlers.on_message = (fun ~now:_ ~src:_ _ -> outer ());
      on_timer = (fun ~now:_ _ -> no_actions);
      on_deliver =
        Some (fun ~now:_ ~seq ~payload:_ ~recovered:_ -> ran := seq :: !ran);
      on_notice =
        Some
          (fun ~now:_ -> function
            | Io.N_estimate _ ->
                ran := 0 :: !ran;
                rig.perform 0 (call [ deliver 10; deliver 11 ])
            | _ -> ());
    };
  rig.add 1 (null_handlers ());
  let expected = [ 1; 0; 10; 11; 2 ] in
  rig.perform 0 (outer ());
  Alcotest.(check (list int)) "performed call" expected (List.rev !ran);
  checki "buffer drained" 0 (Io.length out);
  ran := [];
  rig.perform 1
    (Io.of_list [ Io.Send (Io.To_addr (rig.addr 0), Message.Who_is_primary) ]);
  rig.settle ();
  rig.close ();
  Alcotest.(check (list int)) "received call" expected (List.rev !ran);
  checki "buffer drained after receive" 0 (Io.length out)

(* The same rule with a real machine: when the source's first epoch
   settles, its notice makes the application send from inside the timer
   expiry's drain.  The data packet goes out exactly once, to the one
   group member, and the heartbeat the source armed first still beats. *)
let source_sends_from_notice rig =
  let cfg = Lbrm.Config.default in
  let source =
    Lbrm.Source.create cfg ~self:(rig.addr 0) ~primary:(rig.addr 1)
      ~initial_estimate:1. ()
  in
  let sent = ref 0 in
  let on_notice ~now = function
    | Io.N_epoch _ ->
        incr sent;
        rig.perform 0 (Lbrm.Source.send source ~now "nested")
    | _ -> ()
  in
  rig.add 0 (Handlers.of_source ~on_notice source);
  rig.add 1 (null_handlers ());
  rig.perform 1 (Io.of_list [ Io.Join cfg.group ]);
  rig.perform 0 (Lbrm.Source.start source ~now:0.);
  (* The source heartbeats forever: run past the epoch settling only. *)
  rig.run_for 1.0;
  let data = rig.count "sent.data" and beats = rig.count "sent.heartbeat" in
  rig.close ();
  checki "the app sent from the notice" 1 !sent;
  checki "one data multicast" 1 (Lbrm.Source.data_multicasts source);
  checki "one copy left" 1 data;
  checkb "the heartbeat armed at start beats" true (beats >= 1)

let scenario_bookkeeping () =
  let d =
    Scenario.standard ~cfg:{ Lbrm.Config.default with stat_ack_enabled = false }
      ~sites:2 ~receivers_per_site:3 ()
  in
  checki "secondaries per site" 2 (Array.length d.secondaries);
  checki "receivers total" 6 (Array.length d.receivers);
  checki "site 1 receivers" 3 (List.length (Scenario.site_receivers d ~site:1));
  checkb "payload generator honours size" true
    (String.length (Scenario.payload_of_size 128 7) = 128);
  Scenario.drive_periodic d ~interval:1. ~count:3 ();
  Scenario.run d ~until:10.;
  checkb "delivered_everywhere tracks" true (Scenario.delivered_everywhere d 3);
  checkb "unknown seq not everywhere" false (Scenario.delivered_everywhere d 9)

let () =
  Alcotest.run "run"
    [
      ( "sim-runtime",
        [
          Alcotest.test_case "timer re-arm and cancel" `Quick (fun () ->
              timer_rearm_semantics (sim_rig ()));
          Alcotest.test_case "live key re-armed many times" `Quick (fun () ->
              timer_rearm_many (sim_rig ()));
          Alcotest.test_case "equal deadlines fire in arming order" `Quick
            (fun () -> equal_deadline_ties (sim_rig ()));
          Alcotest.test_case "join/leave actions" `Quick (fun () ->
              join_leave_actions (sim_rig ()));
          Alcotest.test_case "trace records activity" `Quick
            trace_records_activity;
          Alcotest.test_case "nested call during a drain" `Quick (fun () ->
              nested_call_during_drain (sim_rig ()));
          Alcotest.test_case "source sends from a notice" `Quick (fun () ->
              source_sends_from_notice (sim_rig ()));
        ] );
      ( "udp-runtime",
        [
          Alcotest.test_case "timer re-arm and cancel" `Quick (fun () ->
              timer_rearm_semantics (udp_rig ~base_port:48700 ()));
          Alcotest.test_case "live key re-armed many times" `Quick (fun () ->
              timer_rearm_many (udp_rig ~base_port:48730 ()));
          Alcotest.test_case "equal deadlines fire in arming order" `Quick
            (fun () -> equal_deadline_ties (udp_rig ~base_port:48760 ()));
          Alcotest.test_case "join/leave actions" `Quick (fun () ->
              join_leave_actions (udp_rig ~base_port:48710 ()));
          Alcotest.test_case "counts as the simulator does" `Quick
            transports_count_alike;
          Alcotest.test_case "nested call during a drain" `Quick (fun () ->
              nested_call_during_drain (udp_rig ~base_port:48740 ()));
          Alcotest.test_case "source sends from a notice" `Quick (fun () ->
              source_sends_from_notice (udp_rig ~base_port:48750 ()));
        ] );
      ( "scenario",
        [ Alcotest.test_case "bookkeeping" `Quick scenario_bookkeeping ] );
    ]
