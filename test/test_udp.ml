(* The real-socket runtime: LBRM agents over loopback UDP datagrams.
   These tests bind actual sockets and run for wall-clock fractions of a
   second; loss is injected at the send hook (loopback never drops). *)

module U = Lbrm_run.Udp_runtime
module H = Lbrm_run.Handlers
module Scenario = Lbrm_run.Scenario

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* Sandboxes without loopback sockets skip (not fail) every test here:
   socket availability is an environment fact, not a regression. *)
let sockets_available =
  lazy
    (match Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 with
    | s -> (
        match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) with
        | () ->
            Unix.close s;
            true
        | exception Unix.Unix_error _ ->
            Unix.close s;
            false)
    | exception Unix.Unix_error _ -> false)

let require_sockets () =
  if not (Lazy.force sockets_available) then Alcotest.skip ()

(* Small heartbeat intervals so recovery fits in a short wall-clock run. *)
let cfg =
  {
    Lbrm.Config.default with
    stat_ack_enabled = false;
    h_min = 0.05;
    nack_delay = 0.01;
    nack_timeout = 0.15;
    deposit_timeout = 0.2;
  }

let make_session ?(cfg = cfg) ?use_mmsg ~base_port ~loss ~receiver_count () =
  Scenario.loopback ~cfg ~base_port ~receivers:receiver_count
    (U.create ~loss ~seed:3 ?use_mmsg ())

(* Run until every receiver has delivered [count] packets or 6 s have
   passed: recovery of a trailing loss can need a couple of heartbeat
   rounds under wall-clock scheduling. *)
let settle (s : U.t Scenario.t) ~count =
  let complete () =
    Array.for_all (fun (r, _) -> Lbrm.Receiver.delivered r = count) s.receivers
  in
  let deadline = U.now s.runtime +. 6.0 in
  while (not (complete ())) && U.now s.runtime < deadline do
    U.run_for s.runtime ~seconds:0.2
  done

let lossless_udp () =
  require_sockets ();
  let s = make_session ~base_port:48100 ~loss:0. ~receiver_count:3 () in
  for i = 1 to 5 do
    Scenario.send s (Printf.sprintf "udp-%d" i);
    U.run_for s.runtime ~seconds:0.03
  done;
  U.run_for s.runtime ~seconds:0.3;
  Array.iter
    (fun (r, _) -> checki "all delivered" 5 (Lbrm.Receiver.delivered r))
    s.receivers;
  checkb "no drops injected" true ((U.stats s.runtime).dropped = 0);
  U.close s.runtime

let lossy_udp_recovers () =
  require_sockets ();
  let s = make_session ~base_port:48200 ~loss:0.3 ~receiver_count:3 () in
  for i = 1 to 8 do
    Scenario.send s (Printf.sprintf "udp-%d" i);
    U.run_for s.runtime ~seconds:0.05
  done;
  (* Give loss detection (heartbeats) and NACK service time to finish,
     bounded: a loaded host can stretch recovery past a fixed wait. *)
  settle s ~count:8;
  Array.iter
    (fun (r, port) ->
      checki (Printf.sprintf "receiver %d complete" port) 8
        (Lbrm.Receiver.delivered r))
    s.receivers;
  checkb "losses were actually injected" true ((U.stats s.runtime).dropped > 0);
  checkb "recovery actually happened" true
    (Array.exists (fun (r, _) -> Lbrm.Receiver.recovered r > 0) s.receivers);
  U.close s.runtime

(* A live session accounts for notices as the simulator does: the gaps
   the receivers noticed and the latency of each repair. *)
let lossy_udp_records_notices () =
  require_sockets ();
  let s = make_session ~base_port:48830 ~loss:0.3 ~receiver_count:3 () in
  for i = 1 to 8 do
    Scenario.send s (Printf.sprintf "udp-%d" i);
    U.run_for s.runtime ~seconds:0.05
  done;
  U.run_for s.runtime ~seconds:1.5;
  let registries = List.map snd (U.agent_metrics s.runtime) in
  let gaps =
    List.fold_left
      (fun n m -> n + Lbrm_util.Metrics.count m "loss.gaps")
      0 registries
  and latencies =
    List.fold_left
      (fun n m ->
        match
          List.assoc_opt "recovery_latency" (Lbrm_util.Metrics.samples m)
        with
        | Some sample -> n + Lbrm_util.Stats.Sample.count sample
        | None -> n)
      0 registries
  in
  U.close s.runtime;
  checkb "losses were actually injected" true ((U.stats s.runtime).dropped > 0);
  checkb "gaps counted" true (gaps > 0);
  checkb "recovery latency sampled" true (latencies > 0)

let fallback_path_recovers () =
  require_sockets ();
  (* Same lossy scenario, forced onto the portable per-datagram
     sendto/recvfrom path: recovery must not depend on the stubs.  The
     retry limit is raised so an unlucky loss pattern cannot make a
     receiver abandon a pursuit (give-up is legitimate protocol
     behaviour at the default limit, but this test asserts completion). *)
  let cfg = { cfg with nack_retry_limit = 20 } in
  let s =
    make_session ~cfg ~use_mmsg:false ~base_port:48400 ~loss:0.3
      ~receiver_count:2 ()
  in
  checkb "portable path active" false (U.mmsg_active s.runtime);
  for i = 1 to 5 do
    Scenario.send s (Printf.sprintf "fb-%d" i);
    U.run_for s.runtime ~seconds:0.05
  done;
  settle s ~count:5;
  Array.iter
    (fun (r, port) ->
      checki (Printf.sprintf "receiver %d complete" port) 5
        (Lbrm.Receiver.delivered r))
    s.receivers;
  U.close s.runtime

let encode_failure_is_not_loss () =
  require_sockets ();
  (* An unencodable message (over-long NACK list) must land in the
     encode-failure counter and tx.encode_failed metric — never in
     [dropped], which is reserved for injected loss. *)
  let rt = U.create () in
  let none = Lbrm.Io.out () in
  let handlers =
    {
      H.on_message = (fun ~now:_ ~src:_ _ -> none);
      on_timer = (fun ~now:_ _ -> none);
      on_deliver = None;
      on_notice = None;
    }
  in
  U.add_agent rt ~port:48600 handlers;
  U.add_agent rt ~port:48601 handlers;
  let too_long = List.init 65537 (fun i -> i) in
  U.perform rt ~port:48600
    (Lbrm.Io.of_list
       [
         Lbrm.Io.Send
           (Lbrm.Io.To_addr 48601, Lbrm_wire.Message.Nack { seqs = too_long });
         Lbrm.Io.Send
           (Lbrm.Io.To_addr 48601, Lbrm_wire.Message.Replica_ack { seq = 1 });
       ]);
  U.run_for rt ~seconds:0.05;
  let st = U.stats rt in
  checki "encode failure counted" 1 st.encode_failures;
  checki "not counted as loss" 0 st.dropped;
  checki "valid sibling still sent" 1 st.sent;
  let m = U.runtime_metrics rt in
  checki "tx.encode_failed metric" 1
    (Lbrm_util.Metrics.value (Lbrm_util.Metrics.counter m "tx.encode_failed"));
  U.close rt

(* A receiver that joins after 600 packets went out finds one 600-seq
   gap on its first arrival ([recover_from_start]): more than a
   datagram slot's worth of NACK.  The NACKs go out cut to fit the
   2048-byte receive slot, so the logger reads every one whole and
   every packet is repaired.  A single 600-seq NACK (2405 bytes) would
   arrive truncated, be dropped, and leave the gap open for good. *)
let burst_600_recovered () =
  require_sockets ();
  let cfg = { cfg with recover_from_start = true } in
  let s = make_session ~cfg ~base_port:48900 ~loss:0. ~receiver_count:0 () in
  for i = 1 to 600 do
    Scenario.send s (Printf.sprintf "burst-%d" i);
    if i mod 50 = 0 then U.run_for s.runtime ~seconds:0.01
  done;
  U.run_for s.runtime ~seconds:0.1;
  let port = 48903 in
  let r =
    Lbrm.Receiver.create cfg ~self:port ~source:s.source_node
      ~loggers:[ snd s.secondaries.(0); s.primary_node ]
  in
  U.add_agent s.runtime ~port (H.of_receiver r);
  U.join s.runtime ~group:cfg.group ~port;
  U.perform s.runtime ~port (Lbrm.Receiver.start r ~now:(U.now s.runtime));
  Scenario.send s "burst-601";
  let rec wait n =
    if n > 0 && Lbrm.Receiver.delivered r < 601 then begin
      U.run_for s.runtime ~seconds:0.1;
      wait (n - 1)
    end
  in
  wait 30;
  let truncated = (U.stats s.runtime).rx_truncated in
  U.close s.runtime;
  checki "nothing arrived truncated" 0 truncated;
  checki "every packet delivered" 601 (Lbrm.Receiver.delivered r);
  checkb "the gap took more than one NACK" true
    (Lbrm.Receiver.nacks_sent r >= 2)

(* The loopback deployment is the simulated one under the address
   map: host [i] of the one site listens on [base_port + i]. *)
let loopback_matches_simulated () =
  require_sockets ();
  let base_port = 48500 and receivers = 3 in
  let sim = Scenario.standard ~cfg ~sites:1 ~receivers_per_site:receivers () in
  let udp = Scenario.loopback ~cfg ~base_port ~receivers (U.create ()) in
  U.close udp.runtime;
  let hosts = sim.wan.sites.(0).hosts in
  let port node =
    base_port + Option.get (Array.find_index (( = ) node) hosts)
  in
  let ports = List.map port in
  Alcotest.(check (list int))
    "receiver ports"
    (ports (List.map snd (Array.to_list sim.receivers)))
    (List.map snd (Array.to_list udp.receivers));
  Array.iter2
    (fun (rs, _) (ru, _) ->
      Alcotest.(check (list int))
        "receiver loggers"
        (ports (Lbrm.Receiver.loggers rs))
        (Lbrm.Receiver.loggers ru))
    sim.receivers udp.receivers;
  let loggers (d : _ Scenario.t) =
    (d.primary, d.primary_node) :: Array.to_list d.secondaries
  in
  List.iter2
    (fun (ls, ns) (lu, nu) ->
      checki "logger port" (port ns) nu;
      checkb "logger is_primary" (Lbrm.Logger.is_primary ls)
        (Lbrm.Logger.is_primary lu))
    (loggers sim) (loggers udp);
  checki "source port" (port sim.source_node) udp.source_node;
  checki "source's primary"
    (port (Lbrm.Source.primary sim.source))
    (Lbrm.Source.primary udp.source)

(* LBRM receivers send nothing while they see no loss.  The fan-out must
   keep sending a silent receiver data and heartbeats, or it could not
   even detect a gap. *)
let silent_receiver_keeps_receiving () =
  require_sockets ();
  let s = make_session ~base_port:48300 ~loss:0. ~receiver_count:1 () in
  for i = 1 to 60 do
    Scenario.send s (Printf.sprintf "quiet-%d" i);
    U.run_for s.runtime ~seconds:0.05
  done;
  U.run_for s.runtime ~seconds:0.2;
  U.close s.runtime;
  let r = fst s.receivers.(0) in
  checki "every packet delivered" 60 (Lbrm.Receiver.delivered r);
  checki "no NACK needed" 0 (Lbrm.Receiver.nacks_sent r)

(* Agents that only count what reaches their [on_message]. *)
let counting_agent rt ~port =
  let seen = ref 0 and none = Lbrm.Io.out () in
  U.add_agent rt ~port
    {
      H.on_message =
        (fun ~now:_ ~src:_ _ ->
          incr seen;
          none);
      on_timer = (fun ~now:_ _ -> none);
      on_deliver = None;
      on_notice = None;
    };
  seen

(* Datagrams from a plain socket, outside any runtime. *)
let send_raw ~port datagrams =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let dst = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  List.iter
    (fun d -> ignore (Unix.sendto_substring s d 0 (String.length d) [] dst))
    datagrams;
  Unix.close s

let malformed_dropped () =
  require_sockets ();
  let rt = U.create () in
  let port = 48800 in
  let seen = counting_agent rt ~port in
  let valid =
    match Lbrm_wire.Codec.encode Lbrm_wire.Message.Who_is_primary with
    | Ok s -> s
    | Error _ -> Alcotest.fail "Who_is_primary did not encode"
  in
  let data =
    match
      Lbrm_wire.Codec.encode
        (Lbrm_wire.Message.Data
           { seq = 1; epoch = 0; payload = Lbrm_wire.Payload.of_string "abc" })
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "Data did not encode"
  in
  send_raw ~port
    [
      "\xff\x00" (* unknown tag *);
      String.sub data 0 (String.length data - 1) (* truncated *);
      valid ^ "\x00" (* trailing byte *);
      valid;
    ];
  U.run_for rt ~seconds:0.05;
  let m = U.runtime_metrics rt in
  let malformed =
    Lbrm_util.Metrics.value (Lbrm_util.Metrics.counter m "rx.malformed")
  in
  let recv =
    let am = List.assoc port (U.agent_metrics rt) in
    Lbrm_util.Metrics.(value (counter am "recv.who_is_primary"))
  in
  U.close rt;
  checki "three malformed datagrams counted" 3 malformed;
  checki "only the well-formed one dispatched" 1 !seen;
  checki "and counted as received" 1 recv

(* A message bigger than the sender's transmit slot leaves through the
   oversize path; a receiver with big enough slots reads it, and one
   whose slots are too small drops it as truncated. *)
let oversize_sent_truncated_dropped () =
  require_sockets ();
  let small () = U.create ~slot_size:256 () in
  let tx = small () and big = U.create () and trunc = small () in
  let a = 48820 and b = 48821 and c = 48822 in
  ignore (counting_agent tx ~port:a);
  let seen_big = counting_agent big ~port:b
  and seen_trunc = counting_agent trunc ~port:c in
  let data =
    Lbrm_wire.Message.Data
      {
        seq = 1;
        epoch = 0;
        payload = Lbrm_wire.Payload.of_string (String.make 1000 'j');
      }
  in
  U.perform tx ~port:a
    (Lbrm.Io.of_list [ Lbrm.Io.send_to b data; Lbrm.Io.send_to c data ]);
  U.run_for big ~seconds:0.05;
  U.run_for trunc ~seconds:0.05;
  let st = U.stats tx and truncated = (U.stats trunc).rx_truncated in
  List.iter U.close [ tx; big; trunc ];
  checki "both sent" 2 st.sent;
  checki "both through the oversize path" 2 st.oversize;
  checki "no encode failure" 0 st.encode_failures;
  checki "read whole by a big-slot receiver" 1 !seen_big;
  checki "truncated at a small-slot receiver" 1 truncated;
  checki "and not dispatched there" 0 !seen_trunc

(* The region holds the receive ring and then the transmit stage,
   [batch] fixed slots each.  A sends three full stages and a partial
   one in one perform, B sends ten more, and C answers every datagram
   with two, so C's transmit stage fills while its receive ring still
   holds datagrams not yet decoded.  Every payload must reach C intact,
   and every datagram must leave through a staged batch. *)
let fixed_slots_keep_payloads () =
  require_sockets ();
  let batch = 8 in
  let rt = U.create ~batch () in
  let a = 48840 and b = 48841 and c = 48842 in
  ignore (counting_agent rt ~port:a);
  ignore (counting_agent rt ~port:b);
  let got = ref [] in
  U.add_agent rt ~port:c
    {
      H.on_message =
        (fun ~now:_ ~src:_ msg ->
          (match msg with
          | Lbrm_wire.Message.Data { payload; _ } ->
              got := Lbrm_wire.Payload.to_owned payload :: !got
          | _ -> ());
          Lbrm.Io.of_list
            [
              Lbrm.Io.send_to a Lbrm_wire.Message.Who_is_primary;
              Lbrm.Io.send_to b Lbrm_wire.Message.Who_is_primary;
            ]);
      on_timer = (fun ~now:_ _ -> Lbrm.Io.out ());
      on_deliver = None;
      on_notice = None;
    };
  (* 300 distinct bytes per seq. *)
  let payload seq =
    Printf.sprintf "%04d%s" seq (String.make 296 (Char.chr (65 + (seq mod 26))))
  in
  let data seq =
    let payload = Lbrm_wire.Payload.of_string (payload seq) in
    Lbrm.Io.send_to c (Lbrm_wire.Message.Data { seq; epoch = 0; payload })
  in
  let from_a = (3 * batch) + 5 and from_b = 10 in
  U.perform rt ~port:a
    (Lbrm.Io.of_list (List.init from_a (fun i -> data (i + 1))));
  U.perform rt ~port:b
    (Lbrm.Io.of_list (List.init from_b (fun i -> data (from_a + i + 1))));
  let total = from_a + from_b in
  let deadline = U.now rt +. 2.0 in
  while List.length !got < total && U.now rt < deadline do
    U.run_for rt ~seconds:0.05
  done;
  let st = U.stats rt in
  U.close rt;
  Alcotest.(check (list string))
    "every payload, byte for byte"
    (List.init total (fun i -> payload (i + 1)))
    (List.sort String.compare !got);
  checki "every datagram through a staged batch" st.sent st.tx_datagrams;
  checki "and C answered each with two" (3 * total) st.sent

(* The fan-out sends one copy to every member but the sender. *)
let multicast_skips_sender () =
  require_sockets ();
  let rt = U.create () in
  let a = 48810 and b = 48811 and c = 48812 in
  let seen = List.map (fun port -> counting_agent rt ~port) [ a; b; c ] in
  List.iter (fun port -> U.join rt ~group:1 ~port) [ a; b; c ];
  U.perform rt ~port:a
    (Lbrm.Io.of_list
       [ Lbrm.Io.send ~group:1 Lbrm_wire.Message.Who_is_primary ]);
  U.run_for rt ~seconds:0.05;
  U.close rt;
  checki "one datagram per other member" 2 (U.stats rt).sent;
  Alcotest.(check (list int)) "received" [ 0; 1; 1 ] (List.map ( ! ) seen)

(* Agents that keep every message their [on_message] sees, in arrival
   order.  Acks carry no payload view, so keeping them is safe. *)
let recording_agent rt ~port =
  let got = ref [] and none = Lbrm.Io.out () in
  U.add_agent rt ~port
    {
      H.on_message =
        (fun ~now:_ ~src:_ msg ->
          got := msg :: !got;
          none);
      on_timer = (fun ~now:_ _ -> none);
      on_deliver = None;
      on_notice = None;
    };
  fun () ->
    let msgs = List.rev !got in
    got := [];
    msgs

(* A cumulative ack that supersedes the newest datagram staged to its
   port is encoded over it: one perform per case, and each receiving
   agent records what arrived.  Merged acks count in [merged], not in
   [sent]. *)
let stage_merges_superseded_acks () =
  require_sockets ();
  let module M = Lbrm_wire.Message in
  let rt = U.create () in
  let a = 48850 and b = 48851 and c = 48852 in
  ignore (counting_agent rt ~port:a);
  let at_b = recording_agent rt ~port:b and at_c = recording_agent rt ~port:c in
  let log_ack p r = M.Log_ack { primary_seq = p; replica_seq = r } in
  let case name sends ~b:want_b ~c:want_c ~sent ~merged =
    let before = U.stats rt in
    U.perform rt ~port:a
      (Lbrm.Io.of_list
         (List.map (fun (dst, msg) -> Lbrm.Io.send_to dst msg) sends));
    let deadline = U.now rt +. 2.0 in
    let want = List.length want_b + List.length want_c in
    let got_b = ref [] and got_c = ref [] in
    while
      List.length !got_b + List.length !got_c < want && U.now rt < deadline
    do
      U.run_for rt ~seconds:0.01;
      got_b := !got_b @ at_b ();
      got_c := !got_c @ at_c ()
    done;
    U.run_for rt ~seconds:0.02;
    got_b := !got_b @ at_b ();
    got_c := !got_c @ at_c ();
    let after = U.stats rt in
    let msgs = Alcotest.list (Alcotest.testable M.pp M.equal) in
    Alcotest.check msgs (name ^ ": at b") want_b !got_b;
    Alcotest.check msgs (name ^ ": at c") want_c !got_c;
    checki (name ^ ": sent") sent (after.sent - before.sent);
    checki (name ^ ": merged") merged (after.merged - before.merged);
    checki (name ^ ": staged datagrams") sent
      (after.tx_datagrams - before.tx_datagrams)
  in
  case "a dominating run arrives as its last ack"
    [ (b, log_ack 1 1); (b, log_ack 2 1); (b, log_ack 2 2); (b, log_ack 5 3) ]
    ~b:[ log_ack 5 3 ] ~c:[] ~sent:1 ~merged:3;
  case "a lower replica_seq is not merged"
    [ (b, log_ack 5 5); (b, log_ack 6 4) ]
    ~b:[ log_ack 5 5; log_ack 6 4 ] ~c:[] ~sent:2 ~merged:0;
  case "no merge past another datagram to the port"
    [ (b, log_ack 1 1); (b, M.Who_is_primary); (b, log_ack 2 2) ]
    ~b:[ log_ack 1 1; M.Who_is_primary; log_ack 2 2 ]
    ~c:[] ~sent:3 ~merged:0;
  case "acks to two ports merge per port"
    [
      (b, log_ack 1 1);
      (c, M.Ring_ack { seq = 1 });
      (b, log_ack 2 2);
      (c, M.Ring_ack { seq = 4 });
      (b, log_ack 3 3);
    ]
    ~b:[ log_ack 3 3 ] ~c:[ M.Ring_ack { seq = 4 } ] ~sent:2 ~merged:3;
  case "each cumulative kind merges only with itself"
    [
      (b, M.Replica_ack { seq = 1 });
      (b, M.Replica_ack { seq = 3 });
      (b, M.Quorum_ack { seq = 4 });
      (b, M.Quorum_ack { seq = 4 });
      (b, M.Ring_ack { seq = 5 });
    ]
    ~b:
      [
        M.Replica_ack { seq = 3 };
        M.Quorum_ack { seq = 4 };
        M.Ring_ack { seq = 5 };
      ]
    ~c:[] ~sent:3 ~merged:2;
  U.close rt

(* [run_for] waits no longer than it was asked to: the select timeout is
   the time left, not a floor under it.  A floor of 0.5 ms made 100 runs
   of 0.1 ms take at least 50 ms; the best of five rounds stays well
   below that. *)
let run_for_stops_at_deadline () =
  require_sockets ();
  let rt = U.create () in
  ignore (counting_agent rt ~port:48860);
  let round () =
    let t0 = U.now rt in
    for _ = 1 to 100 do
      U.run_for rt ~seconds:1e-4
    done;
    U.now rt -. t0
  in
  let best =
    List.fold_left Float.min Float.infinity (List.init 5 (fun _ -> round ()))
  in
  U.close rt;
  checkb
    (Printf.sprintf "100 runs of 0.1 ms took %.1f ms, under 40 ms"
       (1e3 *. best))
    true (best < 0.040)

let () =
  Alcotest.run "udp"
    [
      ( "udp-runtime",
        [
          Alcotest.test_case "lossless delivery" `Quick lossless_udp;
          Alcotest.test_case "recovery under 30% loss" `Quick
            lossy_udp_recovers;
          Alcotest.test_case "recovery on the portable fallback" `Quick
            fallback_path_recovers;
          Alcotest.test_case "encode failure is not loss" `Quick
            encode_failure_is_not_loss;
          Alcotest.test_case "600-packet burst recovered" `Quick
            burst_600_recovered;
          Alcotest.test_case "silent receiver keeps receiving" `Quick
            silent_receiver_keeps_receiving;
          Alcotest.test_case "malformed datagrams dropped" `Quick
            malformed_dropped;
          Alcotest.test_case "multicast skips only the sender" `Quick
            multicast_skips_sender;
          Alcotest.test_case "oversize sent, truncated dropped" `Quick
            oversize_sent_truncated_dropped;
          Alcotest.test_case "notices recorded under loss" `Quick
            lossy_udp_records_notices;
          Alcotest.test_case "fixed slots keep every payload" `Quick
            fixed_slots_keep_payloads;
          Alcotest.test_case "loopback layout matches simulator" `Quick
            loopback_matches_simulated;
          Alcotest.test_case "the stage merges superseded acks" `Quick
            stage_merges_superseded_acks;
          Alcotest.test_case "run_for stops at its deadline" `Quick
            run_for_stops_at_deadline;
        ] );
    ]
