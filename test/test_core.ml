(* Unit tests for the core protocol state machines, exercised sans-IO:
   feed messages/timers, inspect the returned actions. *)

module Message = Lbrm_wire.Message
module Io = Lbrm.Io
module Config = Lbrm.Config
module Log_store = Lbrm.Log_store
module Group_estimate = Lbrm.Group_estimate
module Stat_ack = List_view.Stat_ack
module Source = List_view.Source
module Receiver = List_view.Receiver
module Logger = List_view.Logger
module Discovery = List_view.Discovery
module Rng = Lbrm_util.Rng

(* Shorthand for building wire payload views in message literals. *)
let p = Lbrm_wire.Payload.of_string
let pstr = Lbrm_wire.Payload.to_string

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf eps = Alcotest.check (Alcotest.float eps)
let qtest = QCheck_alcotest.to_alcotest

let cfg = Config.default
let plain = { cfg with stat_ack_enabled = false }

(* --- action inspection helpers --- *)

let sends actions =
  List.filter_map
    (function Io.Send (dest, msg) -> Some (dest, msg) | _ -> None)
    actions

let sent_kinds actions = List.map (fun (_, m) -> Message.kind m) (sends actions)

let unicasts_to addr actions =
  List.filter_map
    (function
      | Io.Send (Io.To_addr a, msg) when a = addr -> Some msg | _ -> None)
    actions

let multicasts actions =
  List.filter_map
    (function
      | Io.Send (Io.To_group { group; ttl }, msg) -> Some (group, ttl, msg)
      | _ -> None)
    actions

let timers_set actions =
  List.filter_map (function Io.Set_timer (k, d) -> Some (k, d) | _ -> None) actions

let delivered actions =
  List.filter_map
    (function
      | Io.Deliver { seq; payload; recovered } -> Some (seq, payload, recovered)
      | _ -> None)
    actions

let notices actions =
  List.filter_map (function Io.Notify n -> Some n | _ -> None) actions

(* ---- Config ---- *)

let config_validation () =
  checkb "default valid" true (Result.is_ok (Config.validate Config.default));
  checkb "h_min > h_max rejected" true
    (Result.is_error (Config.validate { cfg with h_min = 50. }));
  checkb "backoff 1 rejected" true
    (Result.is_error (Config.validate { cfg with backoff = 1. }));
  checkb "negative h_min rejected" true
    (Result.is_error (Config.validate { cfg with h_min = -1. }));
  checkb "alpha 0 rejected" true
    (Result.is_error (Config.validate { cfg with estimate_alpha = 0. }));
  let fixed = Config.fixed_heartbeat cfg in
  checkb "fixed policy" true (fixed.heartbeat_policy = Config.Fixed)

(* ---- Log_store ---- *)

let store_basics () =
  let s = Log_store.create ~retention:Log_store.Keep_all () in
  checkb "fresh add" true (Log_store.add s ~now:0. ~seq:1 ~epoch:0 ~payload:"a");
  checkb "duplicate add" false (Log_store.add s ~now:1. ~seq:1 ~epoch:0 ~payload:"a");
  checki "count" 1 (Log_store.count s);
  (match Log_store.get s ~now:2. 1 with
  | Some e -> Alcotest.check Alcotest.string "payload" "a" e.payload
  | None -> Alcotest.fail "missing");
  checkb "absent" true (Log_store.get s ~now:2. 9 = None)

let store_contiguity () =
  let s = Log_store.create ~retention:Log_store.Keep_all () in
  ignore (Log_store.add s ~now:0. ~seq:1 ~epoch:0 ~payload:"");
  ignore (Log_store.add s ~now:0. ~seq:2 ~epoch:0 ~payload:"");
  ignore (Log_store.add s ~now:0. ~seq:5 ~epoch:0 ~payload:"");
  Alcotest.check (Alcotest.option Alcotest.int) "contig stops at gap" (Some 2)
    (Log_store.highest_contiguous s);
  ignore (Log_store.add s ~now:0. ~seq:3 ~epoch:0 ~payload:"");
  ignore (Log_store.add s ~now:0. ~seq:4 ~epoch:0 ~payload:"");
  Alcotest.check (Alcotest.option Alcotest.int) "gap filled" (Some 5)
    (Log_store.highest_contiguous s);
  (match Log_store.newest s with
  | Some e -> checki "newest" 5 e.seq
  | None -> Alcotest.fail "no newest")

let store_keep_last () =
  let evicted = ref [] in
  let s =
    Log_store.create
      ~on_evict:(fun e -> evicted := e.seq :: !evicted)
      ~retention:(Log_store.Keep_last 3) ()
  in
  for i = 1 to 5 do
    ignore (Log_store.add s ~now:0. ~seq:i ~epoch:0 ~payload:"")
  done;
  checki "bounded" 3 (Log_store.count s);
  Alcotest.check (Alcotest.list Alcotest.int) "evicted oldest" [ 2; 1 ] !evicted;
  checki "evictions counter" 2 (Log_store.evictions s);
  checkb "1 gone" true (Log_store.get s ~now:0. 1 = None);
  checkb "5 kept" true (Log_store.get s ~now:0. 5 <> None);
  (* Contiguity recomputes over the surviving window. *)
  Alcotest.check (Alcotest.option Alcotest.int) "contig over survivors"
    (Some 5) (Log_store.highest_contiguous s)

let store_lifetime () =
  let s = Log_store.create ~retention:(Log_store.Keep_for 10.) () in
  ignore (Log_store.add s ~now:0. ~seq:1 ~epoch:0 ~payload:"");
  ignore (Log_store.add s ~now:5. ~seq:2 ~epoch:0 ~payload:"");
  checkb "young lives" true (Log_store.get s ~now:9. 1 <> None);
  checkb "old expires on get" true (Log_store.get s ~now:11. 1 = None);
  checki "expire purges" 0 (Log_store.expire s ~now:11.);
  (* seq 1 already purged by the failed get; seq 2 expires later *)
  checki "later purge" 1 (Log_store.expire s ~now:16.);
  checki "empty" 0 (Log_store.count s)

let store_churn_stays_bounded () =
  (* Regression for the old insertion-order queue, which grew without
     bound under Keep_for churn: 100k add+expire cycles must leave both
     the resident count and the ring capacity at the live-window size
     (life 10 s at 10 ms arrivals -> ~1000 live entries). *)
  let evicted = ref 0 in
  let s =
    Log_store.create
      ~on_evict:(fun _ -> incr evicted)
      ~retention:(Log_store.Keep_for 10.) ()
  in
  for i = 1 to 100_000 do
    let now = 0.01 *. float_of_int i in
    ignore (Log_store.add s ~now ~seq:i ~epoch:0 ~payload:"x");
    ignore (Log_store.expire s ~now)
  done;
  checkb "count bounded by live window" true (Log_store.count s <= 1100);
  checkb "capacity bounded by live window" true (Log_store.capacity s <= 2048);
  checki "everything else was evicted" (100_000 - Log_store.count s) !evicted;
  checki "eviction counter agrees" !evicted (Log_store.evictions s);
  (match Log_store.newest s with
  | Some e -> checki "newest survives churn" 100_000 e.seq
  | None -> Alcotest.fail "store emptied");
  Alcotest.check (Alcotest.option Alcotest.int) "window is contiguous"
    (Some 100_000)
    (Log_store.highest_contiguous s);
  (* iter walks the ring in ascending seq order without sorting. *)
  let prev = ref 0 and seen = ref 0 in
  Log_store.iter
    (fun e ->
      incr seen;
      checkb "ascending" true (e.seq > !prev);
      prev := e.seq)
    s;
  checki "iter covers residents" (Log_store.count s) !seen

let store_prop_get_after_add =
  QCheck.Test.make ~count:200 ~name:"log_store: everything added is gettable"
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 1 200))
    (fun seqs ->
      let s = Log_store.create ~retention:Log_store.Keep_all () in
      List.iter
        (fun seq -> ignore (Log_store.add s ~now:0. ~seq ~epoch:0 ~payload:"x"))
        seqs;
      List.for_all (fun seq -> Log_store.get s ~now:1. seq <> None) seqs)

(* ---- Group_estimate ---- *)

let probing_converges () =
  (* Simulate a population of exactly n loggers answering probes. *)
  let n = 500 in
  let rng = Rng.create ~seed:21 in
  let probing = Group_estimate.Probing.create () in
  let rec loop decision =
    match decision with
    | Group_estimate.Probing.Done est -> est
    | Probe { p; _ } ->
        let replies = ref 0 in
        for _ = 1 to n do
          if Rng.bernoulli rng ~p then incr replies
        done;
        loop (Group_estimate.Probing.round_finished probing ~replies:!replies)
  in
  let est = loop (Group_estimate.Probing.start probing) in
  checkb
    (Printf.sprintf "estimate %.0f within 25%% of %d" est n)
    true
    (Float.abs (est -. float_of_int n) /. float_of_int n < 0.25)

let probing_small_group () =
  (* With fewer members than the reply target the probability climbs to
     1 and the estimate is exact. *)
  let n = 4 in
  let probing = Group_estimate.Probing.create ~target_replies:10 ~repeats:0 () in
  let rec loop decision =
    match decision with
    | Group_estimate.Probing.Done est -> est
    | Probe { p; _ } ->
        let replies = if p >= 1. then n else 0 in
        loop (Group_estimate.Probing.round_finished probing ~replies)
  in
  checkf 1e-9 "exact at p=1" (float_of_int n)
    (loop (Group_estimate.Probing.start probing))

let stddev_table2 () =
  (* Table 2: sigma_1 = sqrt(N(1-p)/p); repeats divide by sqrt(n). *)
  let n = 500. and p = 0.04 in
  let s1 = Group_estimate.stddev_single ~n ~p in
  checkf 1e-9 "sigma1" (sqrt (n *. (1. -. p) /. p)) s1;
  checkf 1e-9 "2 probes" (s1 /. sqrt 2.) (Group_estimate.stddev_after ~n ~p ~probes:2);
  checkf 1e-9 "5 probes" (s1 /. sqrt 5.) (Group_estimate.stddev_after ~n ~p ~probes:5)

let refine_moves_toward_truth () =
  (* Repeated EWMA refinement converges to k'/p_ack. *)
  let est = ref 100. in
  for _ = 1 to 200 do
    est := Group_estimate.refine ~alpha:0.125 ~current:!est ~k':20 ~p_ack:0.04
  done;
  checkb "converged to 500" true (Float.abs (!est -. 500.) < 1.)

let hotlist_flags_faulty () =
  let h = Group_estimate.Hotlist.create ~threshold:3 in
  checkb "clean" false (Group_estimate.Hotlist.is_ignored h 7);
  for _ = 1 to 3 do
    Group_estimate.Hotlist.note_unsolicited h 7
  done;
  checkb "flagged" true (Group_estimate.Hotlist.is_ignored h 7);
  Alcotest.check (Alcotest.list Alcotest.int) "listed" [ 7 ]
    (Group_estimate.Hotlist.ignored h);
  (* Two decays halve 3 -> 1: ages out. *)
  Group_estimate.Hotlist.decay h;
  Group_estimate.Hotlist.decay h;
  checkb "aged out" false (Group_estimate.Hotlist.is_ignored h 7)

(* ---- Stat_ack (driven directly) ---- *)

let statack_cfg =
  { cfg with k_ackers = 3; t_wait_init = 0.2; remcast_site_threshold = 2. }

let settle_first_epoch sa ~ackers =
  let actions = Stat_ack.start sa in
  (* Expect the Acker_select multicast. *)
  checkb "acker_select sent" true
    (List.exists
       (function _, _, Message.Acker_select _ -> true | _ -> false)
       (multicasts actions));
  List.iter
    (fun logger ->
      ignore (Stat_ack.on_message sa ~now:0.01
                (Message.Acker_reply { epoch = 1; logger })))
    ackers;
  let actions, _ = Stat_ack.on_timer sa ~now:0.4 (Io.K_epoch_settle 1) in
  checkb "epoch started" true
    (List.exists
       (function Io.N_epoch { epoch = 1; _ } -> true | _ -> false)
       (notices actions))

let statack_epoch_lifecycle () =
  let sa = Stat_ack.create statack_cfg ~self:0 ~retained:(Hashtbl.create 1)
      ~initial_estimate:10. () in
  settle_first_epoch sa ~ackers:[ 101; 102; 103 ];
  checki "epoch 1 current" 1 (Stat_ack.epoch sa);
  checki "expected 3" 3 (Stat_ack.expected_acks sa);
  Alcotest.check (Alcotest.list Alcotest.int) "designated" [ 101; 102; 103 ]
    (Stat_ack.designated sa)

let statack_complete_acks_release () =
  let sa = Stat_ack.create statack_cfg ~self:0 ~retained:(Hashtbl.create 1)
      ~initial_estimate:10. () in
  settle_first_epoch sa ~ackers:[ 101; 102; 103 ];
  ignore (Stat_ack.on_data_sent sa ~now:1. 5);
  checkb "pending" true (Stat_ack.is_pending sa 5);
  let feed logger =
    Stat_ack.on_message sa ~now:1.05
      (Message.Stat_ack { epoch = 1; seq = 5; logger })
  in
  ignore (feed 101);
  ignore (feed 102);
  let actions, ev = feed 103 in
  checkb "twait cancelled, then full-count feedback" true
    (actions
    = [
        Io.Cancel_timer (Io.K_twait 5);
        Io.Notify (Io.N_feedback { seq = 5; missing = 0; expected = 3 });
      ]);
  checkb "tracking done" true (ev = Some 5);
  checkb "no longer pending" false (Stat_ack.is_pending sa 5)

let statack_missing_acks_remulticast () =
  let sa = Stat_ack.create statack_cfg ~self:0 ~retained:(Hashtbl.create 1)
      ~initial_estimate:10. () in
  settle_first_epoch sa ~ackers:[ 101; 102; 103 ];
  ignore (Stat_ack.on_data_sent sa ~now:1. 5);
  (* Only one of three acks: 2 missing ackers represent ~2/3 of the ~10
     site estimate >= threshold 2 -> re-multicast. *)
  ignore
    (Stat_ack.on_message sa ~now:1.02
       (Message.Stat_ack { epoch = 1; seq = 5; logger = 101 }));
  let actions, ev = Stat_ack.on_timer sa ~now:1.2 (Io.K_twait 5) in
  checkb "still tracking" true (ev = None);
  checkb "fresh twait armed" true
    (List.exists
       (function Io.K_twait 5, _ -> true | _ -> false)
       (timers_set actions))

let statack_single_site_loss_unicast () =
  (* With expected ~= N_sl (every site acks), one missing ack represents
     ~1 site < threshold: no re-multicast. *)
  let sa =
    Stat_ack.create
      { statack_cfg with remcast_site_threshold = 2. }
      ~self:0 ~retained:(Hashtbl.create 1) ~initial_estimate:3. ()
  in
  settle_first_epoch sa ~ackers:[ 101; 102; 103 ];
  ignore (Stat_ack.on_data_sent sa ~now:1. 5);
  ignore
    (Stat_ack.on_message sa ~now:1.02
       (Message.Stat_ack { epoch = 1; seq = 5; logger = 101 }));
  ignore
    (Stat_ack.on_message sa ~now:1.02
       (Message.Stat_ack { epoch = 1; seq = 5; logger = 102 }));
  let _, ev = Stat_ack.on_timer sa ~now:1.2 (Io.K_twait 5) in
  checkb "left to unicast NACK service, tracking closed" true (ev = Some 5)

let statack_hotlist_unsolicited () =
  let sa = Stat_ack.create statack_cfg ~self:0 ~retained:(Hashtbl.create 1)
      ~initial_estimate:10. () in
  settle_first_epoch sa ~ackers:[ 101 ];
  ignore (Stat_ack.on_data_sent sa ~now:1. 5);
  (* 999 never volunteered; after enough unsolicited acks it is ignored. *)
  for _ = 1 to 5 (* Stat_ack's hotlist threshold *) do
    ignore
      (Stat_ack.on_message sa ~now:1.01
         (Message.Stat_ack { epoch = 1; seq = 5; logger = 999 }))
  done;
  Alcotest.check (Alcotest.list Alcotest.int) "hotlisted" [ 999 ]
    (Stat_ack.ignored_ackers sa)

let statack_twait_adapts () =
  let sa = Stat_ack.create statack_cfg ~self:0 ~retained:(Hashtbl.create 1)
      ~initial_estimate:10. () in
  settle_first_epoch sa ~ackers:[ 101 ];
  let before = Stat_ack.t_wait sa in
  ignore (Stat_ack.on_data_sent sa ~now:1. 5);
  ignore
    (Stat_ack.on_message sa ~now:1.01
       (Message.Stat_ack { epoch = 1; seq = 5; logger = 101 }));
  checkb "t_wait shrank toward fast rtt" true (Stat_ack.t_wait sa < before)

(* ---- Source (driven directly) ---- *)

let source_send_actions () =
  let s = Source.create plain ~self:1 ~primary:2 () in
  let actions = Source.send s ~now:0. "payload" in
  checkb "data multicast" true
    (List.exists
       (function _, _, Message.Data { seq = 1; _ } -> true | _ -> false)
       (multicasts actions));
  checkb "deposit to primary" true
    (List.exists
       (function Message.Log_deposit { seq = 1; _ } -> true | _ -> false)
       (unicasts_to 2 actions));
  checkb "deposit timer" true
    (List.exists (function Io.K_deposit 1, _ -> true | _ -> false)
       (timers_set actions));
  checki "retained" 1 (Source.retained s);
  checki "last seq" 1 (Source.last_seq s)

let source_release_on_log_ack () =
  let s = Source.create plain ~self:1 ~primary:2 () in
  ignore (Source.send s ~now:0. "a");
  ignore (Source.send s ~now:0.1 "b");
  let actions =
    Source.handle_message s ~now:0.2 ~src:2
      (Message.Log_ack { primary_seq = 2; replica_seq = 1 })
  in
  checkb "deposit timers cancelled" true
    (List.mem (Io.Cancel_timer (Io.K_deposit 1)) actions
    && List.mem (Io.Cancel_timer (Io.K_deposit 2)) actions);
  checki "only replica-acked released" 1 (Source.retained s);
  checki "released watermark" 1 (Source.released s)

let source_deposit_retry () =
  let s = Source.create plain ~self:1 ~primary:2 () in
  ignore (Source.send s ~now:0. "a");
  let actions = Source.handle_timer s ~now:0.5 (Io.K_deposit 1) in
  checkb "re-deposits" true
    (List.exists
       (function Message.Log_deposit { seq = 1; _ } -> true | _ -> false)
       (unicasts_to 2 actions))

let source_heartbeat_epoch_and_piggyback () =
  let cfg = { plain with heartbeat_payload_max = 16 } in
  let s = Source.create cfg ~self:1 ~primary:2 () in
  ignore (Source.start s ~now:0.);
  ignore (Source.send s ~now:0. "tiny");
  let actions = Source.handle_timer s ~now:0.25 Io.K_heartbeat in
  (match multicasts actions with
  | [ (_, _, Message.Heartbeat { seq = 1; payload = Some pl; _ }) ]
    when pstr pl = "tiny" ->
      ()
  | _ -> Alcotest.fail "expected piggybacked heartbeat");
  checki "counted" 1 (Source.heartbeats_sent s);
  (* A big payload is not piggybacked. *)
  ignore (Source.send s ~now:1. (String.make 64 'x'));
  let actions = Source.handle_timer s ~now:1.25 Io.K_heartbeat in
  match multicasts actions with
  | [ (_, _, Message.Heartbeat { seq = 2; payload = None; _ }) ] -> ()
  | _ -> Alcotest.fail "expected empty heartbeat"

let source_answers_who_is_primary () =
  let s = Source.create plain ~self:1 ~primary:2 () in
  let actions = Source.handle_message s ~now:0. ~src:77 Message.Who_is_primary in
  match unicasts_to 77 actions with
  | [ Message.Primary_is { logger = 2 } ] -> ()
  | _ -> Alcotest.fail "expected Primary_is"

let source_failover_promotes_best () =
  let cfg = { plain with deposit_retry_limit = 0 } in
  let s = Source.create cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ] () in
  ignore (Source.send s ~now:0. "a");
  (* First deposit timeout exceeds the 0-retry budget: fail-over. *)
  let actions = Source.handle_timer s ~now:0.5 (Io.K_deposit 1) in
  checkb "replicas queried" true
    (unicasts_to 3 actions <> [] && unicasts_to 4 actions <> []);
  ignore
    (Source.handle_message s ~now:0.6 ~src:4 (Message.Replica_status { seq = 1 }));
  ignore
    (Source.handle_message s ~now:0.6 ~src:3 (Message.Replica_status { seq = 0 }));
  let actions = Source.handle_timer s ~now:1.5 (Io.K_failover 1) in
  checkb "promote sent to best replica" true
    (List.exists
       (function Message.Promote _ -> true | _ -> false)
       (unicasts_to 4 actions));
  checki "primary switched" 4 (Source.primary s);
  checkb "promotion notified" true
    (List.exists
       (function Io.N_new_primary 4 -> true | _ -> false)
       (notices actions))

let source_promote_stays_encodable () =
  (* A replica population past the wire bound must not produce an
     unencodable Promote: finish_failover truncates the survivor set. *)
  let bound = Lbrm_wire.Codec.promote_max in
  let cfg = { plain with deposit_retry_limit = 0 } in
  let replicas = List.init (bound + 50) (fun i -> 100 + i) in
  let s = Source.create cfg ~self:1 ~primary:2 ~replicas () in
  ignore (Source.send s ~now:0. "a");
  ignore (Source.handle_timer s ~now:0.5 (Io.K_deposit 1));
  ignore
    (Source.handle_message s ~now:0.6 ~src:100
       (Message.Replica_status { seq = 1 }));
  let actions = Source.handle_timer s ~now:1.5 (Io.K_failover 1) in
  match
    List.find_map
      (function Message.Promote { replicas } -> Some replicas | _ -> None)
      (unicasts_to 100 actions)
  with
  | None -> Alcotest.fail "expected a Promote to the surviving replica"
  | Some kept ->
      checkb "within the wire bound" true (List.length kept <= bound);
      checkb "encodable" true
        (Result.is_ok
           (Lbrm_wire.Codec.encode (Message.Promote { replicas = kept })))

let source_retained_bounded_100k () =
  (* 100k packets with statistical acking holding every payload pending:
     the replay table must respect [source_retain_max], including across
     a fail-over of the primary logger. *)
  let cap = 512 in
  let cfg = { cfg with source_retain_max = cap; deposit_retry_limit = 0 } in
  let s =
    Source.create cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ]
      ~initial_estimate:20. ()
  in
  ignore (Source.start s ~now:0.);
  let n = 100_000 in
  let worst = ref 0 in
  for i = 1 to n do
    let now = float_of_int i *. 0.001 in
    ignore (Source.send s ~now "x");
    ignore
      (Source.handle_message s ~now ~src:2
         (Message.Log_ack { primary_seq = i; replica_seq = i }));
    worst := max !worst (Source.retained s)
  done;
  checkb "bounded throughout" true (!worst <= cap + 1);
  (* The stream rides through a fail-over: the next deposit times out,
     the best replica is promoted, and the unacked tail is re-deposited
     — with the table still bounded. *)
  ignore (Source.send s ~now:200. "y");
  ignore (Source.handle_timer s ~now:200.5 (Io.K_deposit (n + 1)));
  ignore
    (Source.handle_message s ~now:200.6 ~src:4
       (Message.Replica_status { seq = n }));
  let a = Source.handle_timer s ~now:201.5 (Io.K_failover 1) in
  checki "promoted" 4 (Source.primary s);
  checkb "unacked tail re-deposited to the new primary" true
    (List.exists
       (function Message.Log_deposit { seq; _ } -> seq = n + 1 | _ -> false)
       (unicasts_to 4 a));
  checkb "still bounded" true (Source.retained s <= cap + 1)

(* ---- Receiver (driven directly) ---- *)

let recv_cfg = { plain with recover_from_start = false }

let receiver_delivers_in_order () =
  let r = Receiver.create recv_cfg ~self:10 ~source:1 ~loggers:[ 5 ] in
  let a1 = Receiver.handle_message r ~now:0. ~src:1
      (Message.Data { seq = 1; epoch = 0; payload = p "a" })
  in
  (match delivered a1 with
  | [ (1, "a", false) ] -> ()
  | _ -> Alcotest.fail "expected delivery");
  checki "delivered" 1 (Receiver.delivered r);
  (* Duplicate ignored. *)
  let a2 = Receiver.handle_message r ~now:0.1 ~src:1
      (Message.Data { seq = 1; epoch = 0; payload = p "a" })
  in
  checki "dup not delivered" 0 (List.length (delivered a2))

let receiver_gap_nacks_local_logger () =
  let r = Receiver.create recv_cfg ~self:10 ~source:1 ~loggers:[ 5; 6 ] in
  ignore
    (Receiver.handle_message r ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  let a = Receiver.handle_message r ~now:1. ~src:1
      (Message.Data { seq = 4; epoch = 0; payload = p "d" })
  in
  checkb "gap noticed" true
    (List.exists (function Io.N_gap [ 2; 3 ] -> true | _ -> false) (notices a));
  (* Flush timer fires: one NACK to the level-0 logger with both seqs. *)
  let a = Receiver.handle_timer r ~now:1.01 Io.K_nack_flush in
  (match unicasts_to 5 a with
  | [ Message.Nack { seqs = [ 2; 3 ] } ] -> ()
  | _ -> Alcotest.fail "expected batched NACK to local logger");
  checki "one nack counted" 1 (Receiver.nacks_sent r)

let receiver_retrans_closes_pursuit () =
  let r = Receiver.create recv_cfg ~self:10 ~source:1 ~loggers:[ 5 ] in
  ignore
    (Receiver.handle_message r ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  ignore
    (Receiver.handle_message r ~now:1. ~src:1
       (Message.Data { seq = 3; epoch = 0; payload = p "c" }));
  let a = Receiver.handle_message r ~now:1.5 ~src:5
      (Message.Retrans { seq = 2; epoch = 0; payload = p "b" })
  in
  (match delivered a with
  | [ (2, "b", true) ] -> ()
  | _ -> Alcotest.fail "expected recovered delivery");
  checkb "latency notice" true
    (List.exists
       (function
         | Io.N_recovered { seq = 2; latency } -> Float.abs (latency -. 0.5) < 1e-6
         | _ -> false)
       (notices a));
  checki "recovered" 1 (Receiver.recovered r);
  checki "nothing missing" 0 (List.length (Receiver.missing r))

let receiver_escalates_then_gives_up () =
  let cfg = { recv_cfg with nack_retry_limit = 1 } in
  let r = Receiver.create cfg ~self:10 ~source:1 ~loggers:[ 5; 6 ] in
  ignore
    (Receiver.handle_message r ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  ignore
    (Receiver.handle_message r ~now:1. ~src:1
       (Message.Data { seq = 3; epoch = 0; payload = p "c" }));
  (* level 0 *)
  let a = Receiver.handle_timer r ~now:1.01 Io.K_nack_flush in
  checkb "level 0" true (unicasts_to 5 a <> []);
  (* escalation moves to level 1 *)
  ignore (Receiver.handle_timer r ~now:1.52 (Io.K_nack_escalate 2));
  let a = Receiver.handle_timer r ~now:1.53 Io.K_nack_flush in
  checkb "level 1 = primary" true (unicasts_to 6 a <> []);
  (* next escalation asks the source who the primary is *)
  let a = Receiver.handle_timer r ~now:2.1 (Io.K_nack_escalate 2) in
  checkb "asks source" true
    (List.exists
       (function Message.Who_is_primary -> true | _ -> false)
       (unicasts_to 1 a));
  (* after the source query, one more full round at the primary... *)
  ignore (Receiver.handle_timer r ~now:3.2 (Io.K_nack_escalate 2));
  ignore (Receiver.handle_timer r ~now:3.21 Io.K_nack_flush);
  (* ...and finally it gives up *)
  let a = Receiver.handle_timer r ~now:3.8 (Io.K_nack_escalate 2) in
  checkb "gave up" true
    (List.exists (function Io.N_gave_up 2 -> true | _ -> false) (notices a));
  checki "counted" 1 (Receiver.gave_up r);
  checki "no longer missing" 0 (List.length (Receiver.missing r))

let receiver_heartbeat_reveals_loss () =
  let r = Receiver.create recv_cfg ~self:10 ~source:1 ~loggers:[ 5 ] in
  ignore
    (Receiver.handle_message r ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  let a = Receiver.handle_message r ~now:0.3 ~src:1
      (Message.Heartbeat { seq = 3; hb_index = 1; epoch = 0; payload = None })
  in
  checkb "2 and 3 now missing" true
    (List.exists (function Io.N_gap [ 2; 3 ] -> true | _ -> false) (notices a));
  Alcotest.check (Alcotest.list Alcotest.int) "missing" [ 2; 3 ]
    (Receiver.missing r)

let receiver_heartbeat_piggyback_delivers () =
  let r = Receiver.create recv_cfg ~self:10 ~source:1 ~loggers:[ 5 ] in
  let a = Receiver.handle_message r ~now:0. ~src:1
      (Message.Heartbeat { seq = 1; hb_index = 1; epoch = 0; payload = Some (p "p") })
  in
  match delivered a with
  | [ (1, "p", false) ] -> ()
  | _ -> Alcotest.fail "piggybacked payload should deliver"

let receiver_recover_from_start () =
  let r =
    Receiver.create { recv_cfg with recover_from_start = true } ~self:10
      ~source:1 ~loggers:[ 5 ]
  in
  let a = Receiver.handle_message r ~now:0. ~src:1
      (Message.Data { seq = 3; epoch = 0; payload = p "c" })
  in
  checkb "1 and 2 pursued" true
    (List.exists (function Io.N_gap [ 1; 2 ] -> true | _ -> false) (notices a))

let receiver_silence_queries_latest () =
  let r = Receiver.create recv_cfg ~self:10 ~source:1 ~loggers:[ 5 ] in
  ignore
    (Receiver.handle_message r ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  let a = Receiver.handle_timer r ~now:65. Io.K_silence in
  checkb "silence notified" true
    (List.exists (function Io.N_silence _ -> true | _ -> false) (notices a));
  (match unicasts_to 5 a with
  | [ Message.Nack { seqs = [] } ] -> ()
  | _ -> Alcotest.fail "expected latest query");
  checkb "watchdog re-armed" true
    (List.exists (function Io.K_silence, _ -> true | _ -> false) (timers_set a))

let receiver_rediscovery_after_unanswered () =
  (* retrans_retry_limit unanswered level-0 requests: the receiver drops
     the dead secondary from its hierarchy and re-runs expanding-ring
     discovery instead of NACKing a corpse forever. *)
  let cfg = { recv_cfg with retrans_retry_limit = 2; nack_retry_limit = 8 } in
  let r = Receiver.create cfg ~self:10 ~source:1 ~loggers:[ 5; 6 ] in
  ignore
    (Receiver.handle_message r ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  ignore
    (Receiver.handle_message r ~now:1. ~src:1
       (Message.Data { seq = 3; epoch = 0; payload = p "c" }));
  ignore (Receiver.handle_timer r ~now:1.01 Io.K_nack_flush);
  (* unanswered request #1: still patient *)
  ignore (Receiver.handle_timer r ~now:1.6 (Io.K_nack_escalate 2));
  ignore (Receiver.handle_timer r ~now:1.61 Io.K_nack_flush);
  checkb "not yet searching" false (Receiver.discovering r);
  (* unanswered request #2 trips the fallback *)
  let a = Receiver.handle_timer r ~now:2.2 (Io.K_nack_escalate 2) in
  checkb "searching" true (Receiver.discovering r);
  Alcotest.(check (list int)) "dead logger dropped" [ 6 ] (Receiver.loggers r);
  let nonce =
    match
      List.find_map
        (function
          | _, _, Message.Discovery_query { nonce } -> Some nonce | _ -> None)
        (multicasts a)
    with
    | Some nonce -> nonce
    | None -> Alcotest.fail "expected a ring query"
  in
  (* A nearby logger answers: adopted nearest-first, pursuits replayed. *)
  let a =
    Receiver.handle_message r ~now:2.3 ~src:7
      (Message.Discovery_reply { nonce; logger = 7 })
  in
  checkb "search finished" false (Receiver.discovering r);
  checki "rediscovery counted" 1 (Receiver.rediscoveries r);
  Alcotest.(check (list int)) "adopted nearest-first" [ 7; 6 ]
    (Receiver.loggers r);
  checkb "re-flush scheduled" true
    (List.exists
       (function Io.K_nack_flush, _ -> true | _ -> false)
       (timers_set a));
  let a = Receiver.handle_timer r ~now:2.31 Io.K_nack_flush in
  checkb "missing packet re-requested from the new logger" true
    (List.exists
       (function Message.Nack { seqs = [ 2 ] } -> true | _ -> false)
       (unicasts_to 7 a))

let receiver_silence_triggers_rediscovery () =
  (* Total silence past the rediscovery deadline also means the nearest
     logger may be dead with the flow idle: go looking for a live one. *)
  let cfg = { recv_cfg with rediscovery_silence = 5. } in
  let r = Receiver.create cfg ~self:10 ~source:1 ~loggers:[ 5 ] in
  ignore
    (Receiver.handle_message r ~now:1. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  ignore (Receiver.handle_timer r ~now:4. Io.K_silence);
  checkb "before the deadline: quiet" false (Receiver.discovering r);
  let a = Receiver.handle_timer r ~now:7. Io.K_silence in
  checkb "past the deadline: searching" true (Receiver.discovering r);
  checkb "ring query sent" true
    (List.exists
       (function _, _, Message.Discovery_query _ -> true | _ -> false)
       (multicasts a));
  Alcotest.(check (list int)) "last-resort level kept" [ 5 ]
    (Receiver.loggers r)

(* ---- Logger (driven directly) ---- *)

let rng () = Rng.create ~seed:33

let logger_secondary_serves_from_log () =
  let l = Logger.create plain ~self:5 ~source:1 ~parent:2 ~rng:(rng ()) () in
  ignore
    (Logger.handle_message l ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  let a = Logger.handle_message l ~now:0.5 ~src:10 (Message.Nack { seqs = [ 1 ] }) in
  (match unicasts_to 10 a with
  | [ Message.Retrans { seq = 1; payload = pl; _ } ] when pstr pl = "a" -> ()
  | _ -> Alcotest.fail "expected unicast repair");
  checki "served" 1 (Logger.requests_served l)

let logger_secondary_chases_parent () =
  let l = Logger.create plain ~self:5 ~source:1 ~parent:2 ~rng:(rng ()) () in
  (* Request for a packet we do not have: remember the waiter, ask parent. *)
  let a = Logger.handle_message l ~now:0. ~src:10 (Message.Nack { seqs = [ 4 ] }) in
  (match unicasts_to 2 a with
  | [ Message.Nack { seqs = [ 4 ] } ] -> ()
  | _ -> Alcotest.fail "expected uplink NACK");
  checki "uplink counted" 1 (Logger.uplink_nacks l);
  (* Second requester within the window does not re-ask the parent. *)
  let a = Logger.handle_message l ~now:0.01 ~src:11 (Message.Nack { seqs = [ 4 ] }) in
  checkb "no duplicate uplink" true (unicasts_to 2 a = []);
  (* Parent repair satisfies both waiters. *)
  let a = Logger.handle_message l ~now:0.1 ~src:2
      (Message.Retrans { seq = 4; epoch = 0; payload = p "d" })
  in
  checkb "waiter 10 served" true (unicasts_to 10 a <> []);
  checkb "waiter 11 served" true (unicasts_to 11 a <> [])

let logger_remulticast_threshold () =
  let cfg = { plain with remcast_request_threshold = 3 } in
  let l = Logger.create cfg ~self:5 ~source:1 ~parent:2 ~rng:(rng ()) () in
  ignore
    (Logger.handle_message l ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  let r1 = Logger.handle_message l ~now:0.50 ~src:10 (Message.Nack { seqs = [ 1 ] }) in
  let r2 = Logger.handle_message l ~now:0.51 ~src:11 (Message.Nack { seqs = [ 1 ] }) in
  checkb "first two unicast" true
    (multicasts r1 = [] && multicasts r2 = []);
  let r3 = Logger.handle_message l ~now:0.52 ~src:12 (Message.Nack { seqs = [ 1 ] }) in
  (match multicasts r3 with
  | [ (_, Some ttl, Message.Retrans { seq = 1; _ }) ] ->
      checki "site ttl" 2 ttl
  | _ -> Alcotest.fail "expected site-scoped re-multicast");
  checki "one remulticast" 1 (Logger.remulticasts l)

let logger_latest_query () =
  let l = Logger.create plain ~self:5 ~source:1 ~parent:2 ~rng:(rng ()) () in
  checkb "empty log: silent" true
    (Logger.handle_message l ~now:0. ~src:10 (Message.Nack { seqs = [] }) = []);
  ignore
    (Logger.handle_message l ~now:0. ~src:1
       (Message.Data { seq = 2; epoch = 0; payload = p "b" }));
  let a = Logger.handle_message l ~now:1. ~src:10 (Message.Nack { seqs = [] }) in
  match unicasts_to 10 a with
  | [ Message.Retrans { seq = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected newest entry"

let logger_primary_acks_deposits () =
  let l = Logger.create plain ~self:2 ~source:1 ~rng:(rng ()) () in
  checkb "is primary" true (Logger.is_primary l);
  let a = Logger.handle_message l ~now:0. ~src:1
      (Message.Log_deposit { seq = 1; epoch = 0; payload = p "a" })
  in
  (match unicasts_to 1 a with
  | [ Message.Log_ack { primary_seq = 1; replica_seq = 1 } ] -> ()
  | _ -> Alcotest.fail "expected Log_ack with own seq standing in for replica")

let logger_primary_with_replicas () =
  let l =
    Logger.create plain ~self:2 ~source:1 ~replicas:[ 3 ] ~rng:(rng ()) ()
  in
  let a = Logger.handle_message l ~now:0. ~src:1
      (Message.Log_deposit { seq = 1; epoch = 0; payload = p "a" })
  in
  (* Replica update flows out; Log_ack reports replica_seq = 0 until the
     replica acknowledges. *)
  checkb "replica update" true
    (List.exists
       (function Message.Replica_update { seq = 1; _ } -> true | _ -> false)
       (unicasts_to 3 a));
  (match unicasts_to 1 a with
  | [ Message.Log_ack { primary_seq = 1; replica_seq = 0 } ] -> ()
  | _ -> Alcotest.fail "expected replica_seq 0 before replica ack");
  let a = Logger.handle_message l ~now:0.1 ~src:3 (Message.Replica_ack { seq = 1 }) in
  match unicasts_to 1 a with
  | [ Message.Log_ack { primary_seq = 1; replica_seq = 1 } ] -> ()
  | _ -> Alcotest.fail "expected updated Log_ack"

let logger_replica_role_and_promotion () =
  let l = Logger.create plain ~self:3 ~source:1 ~parent:2 ~rng:(rng ()) () in
  let a = Logger.handle_message l ~now:0. ~src:2
      (Message.Replica_update { seq = 1; epoch = 0; payload = p "a" })
  in
  (match unicasts_to 2 a with
  | [ Message.Replica_ack { seq = 1 } ] -> ()
  | _ -> Alcotest.fail "expected Replica_ack");
  let a = Logger.handle_message l ~now:0.5 ~src:1 Message.Replica_query in
  (match unicasts_to 1 a with
  | [ Message.Replica_status { seq = 1 } ] -> ()
  | _ -> Alcotest.fail "expected Replica_status");
  ignore
    (Logger.handle_message l ~now:1. ~src:1 (Message.Promote { replicas = [] }));
  checkb "promoted" true (Logger.is_primary l)

let logger_designated_acking () =
  (* p_ack = 1 forces designation; the logger then stat-acks every data
     packet of that epoch, including duplicates (re-multicasts). *)
  let l = Logger.create cfg ~self:5 ~source:1 ~parent:2 ~rng:(rng ()) () in
  let a = Logger.handle_message l ~now:0. ~src:1
      (Message.Acker_select { epoch = 2; p_ack = 1. })
  in
  (match unicasts_to 1 a with
  | [ Message.Acker_reply { epoch = 2; logger = 5 } ] -> ()
  | _ -> Alcotest.fail "expected Acker_reply");
  Alcotest.check (Alcotest.list Alcotest.int) "registered" [ 2 ]
    (Logger.designated_for l);
  let a = Logger.handle_message l ~now:1. ~src:1
      (Message.Data { seq = 1; epoch = 2; payload = p "a" })
  in
  checkb "stat-acked" true
    (List.exists
       (function Message.Stat_ack { epoch = 2; seq = 1; _ } -> true | _ -> false)
       (unicasts_to 1 a));
  let a = Logger.handle_message l ~now:1.2 ~src:1
      (Message.Data { seq = 1; epoch = 2; payload = p "a" })
  in
  checkb "duplicate also acked" true
    (List.exists
       (function Message.Stat_ack { seq = 1; _ } -> true | _ -> false)
       (unicasts_to 1 a))

let logger_never_designated_at_p0 () =
  let l = Logger.create cfg ~self:5 ~source:1 ~parent:2 ~rng:(rng ()) () in
  let a = Logger.handle_message l ~now:0. ~src:1
      (Message.Acker_select { epoch = 2; p_ack = 0. })
  in
  checkb "silent" true (a = []);
  Alcotest.check (Alcotest.list Alcotest.int) "not registered" []
    (Logger.designated_for l)

let logger_discovery_reply () =
  let l = Logger.create plain ~self:5 ~source:1 ~parent:2 ~rng:(rng ()) () in
  let a = Logger.handle_message l ~now:0. ~src:42
      (Message.Discovery_query { nonce = 9 })
  in
  match unicasts_to 42 a with
  | [ Message.Discovery_reply { nonce = 9; logger = 5 } ] -> ()
  | _ -> Alcotest.fail "expected Discovery_reply"

(* ---- Discovery machine ---- *)

let discovery_expanding_ring () =
  let d = Discovery.create cfg in
  let a = Discovery.start d ~now:0. in
  (match multicasts a with
  | [ (group, Some 1, Message.Discovery_query _) ] ->
      checki "discovery group" cfg.discovery_group group
  | _ -> Alcotest.fail "expected ttl-1 query");
  (* Timeout: ring doubles. *)
  (match Discovery.handle_timer d ~now:0.1 (Io.K_discovery 1) with
  | Some a2 -> (
      match multicasts a2 with
      | [ (_, Some 2, Message.Discovery_query { nonce }) ] ->
          (* A reply to the current nonce finishes the search. *)
          (match
             Discovery.handle_message d ~now:0.15 ~src:5
               (Message.Discovery_reply { nonce; logger = 5 })
           with
          | Some a3 ->
              checkb "notified" true
                (List.exists
                   (function Io.N_discovery (Some 5) -> true | _ -> false)
                   (notices a3))
          | None -> Alcotest.fail "reply not consumed")
      | _ -> Alcotest.fail "expected ttl-2 query")
  | None -> Alcotest.fail "timer not consumed");
  checkb "finished" true (Discovery.finished d);
  Alcotest.check (Alcotest.option Alcotest.int) "result" (Some 5)
    (Discovery.result d)

let discovery_gives_up () =
  let d = Discovery.create { cfg with discovery_max_ttl = 2 } in
  ignore (Discovery.start d ~now:0.);
  ignore (Discovery.handle_timer d ~now:0.1 (Io.K_discovery 1));
  (match Discovery.handle_timer d ~now:0.3 (Io.K_discovery 2) with
  | Some a ->
      checkb "failure notified" true
        (List.exists
           (function Io.N_discovery None -> true | _ -> false)
           (notices a))
  | None -> Alcotest.fail "timer not consumed");
  Alcotest.check (Alcotest.option Alcotest.int) "no result" None
    (Discovery.result d)

let discovery_stale_reply_ignored () =
  let d = Discovery.create cfg in
  ignore (Discovery.start d ~now:0.);
  ignore (Discovery.handle_timer d ~now:0.1 (Io.K_discovery 1));
  (* A reply carrying the *old* nonce must not finish the search. *)
  (match
     Discovery.handle_message d ~now:0.15 ~src:5
       (Message.Discovery_reply { nonce = 1; logger = 5 })
   with
  | Some [] -> ()
  | _ -> Alcotest.fail "stale reply should be ignored");
  checkb "still searching" false (Discovery.finished d)


(* ---- Archive (disk tier) ---- *)

(* lib/core is sans-IO: the archive runs against an injected
   Archive.fs.  Protocol-level behaviour is tested on the in-memory
   fake; [archive_real_fs] at the bottom drives the same scenarios
   through the Unix-backed Lbrm_run.File_ops.real. *)

let tmp_archive () =
  let path = Filename.temp_file "lbrm_archive" ".log" in
  Sys.remove path;
  path

let archive_roundtrip () =
  let fs = Lbrm.Archive.in_memory () in
  let path = "archive.log" in
  let a = Result.get_ok (Lbrm.Archive.open_ ~fs path) in
  for seq = 1 to 20 do
    Lbrm.Archive.append a ~seq ~epoch:(seq mod 3)
      ~payload:(Printf.sprintf "payload-%d" seq)
  done;
  checki "count" 20 (Lbrm.Archive.count a);
  (match Lbrm.Archive.find a 7 with
  | Some (epoch, payload) ->
      checki "epoch" 1 epoch;
      Alcotest.check Alcotest.string "payload" "payload-7" payload
  | None -> Alcotest.fail "seq 7 missing");
  checkb "absent" true (Lbrm.Archive.find a 99 = None);
  (* Duplicate appends are no-ops. *)
  Lbrm.Archive.append a ~seq:7 ~epoch:9 ~payload:"overwrite";
  (match Lbrm.Archive.find a 7 with
  | Some (1, "payload-7") -> ()
  | _ -> Alcotest.fail "duplicate append must not overwrite");
  Lbrm.Archive.close a

let archive_survives_reopen () =
  let fs = Lbrm.Archive.in_memory () in
  let path = "archive.log" in
  let a = Result.get_ok (Lbrm.Archive.open_ ~fs path) in
  for seq = 1 to 10 do
    Lbrm.Archive.append a ~seq ~epoch:0 ~payload:(string_of_int seq)
  done;
  Lbrm.Archive.close a;
  (* Reopen: the index is rebuilt from the file. *)
  let b = Result.get_ok (Lbrm.Archive.open_ ~fs path) in
  checki "count after reopen" 10 (Lbrm.Archive.count b);
  (match Lbrm.Archive.find b 10 with
  | Some (0, "10") -> ()
  | _ -> Alcotest.fail "reopened lookup");
  (* And appending continues to work. *)
  Lbrm.Archive.append b ~seq:11 ~epoch:0 ~payload:"11";
  checki "append after reopen" 11 (Lbrm.Archive.count b);
  Lbrm.Archive.close b

let archive_truncates_torn_tail () =
  let fs = Lbrm.Archive.in_memory () in
  let path = "archive.log" in
  let a = Result.get_ok (Lbrm.Archive.open_ ~fs path) in
  for seq = 1 to 5 do
    Lbrm.Archive.append a ~seq ~epoch:0 ~payload:"data"
  done;
  let active = Lbrm.Archive.active_path a in
  Lbrm.Archive.close a;
  (* Simulate a crash mid-append: garbage at the tail of the active
     segment. *)
  Lbrm.Archive.(fs.append) active "\xA1\x0Cgarbage-torn-write";
  let b = Result.get_ok (Lbrm.Archive.open_ ~fs path) in
  checki "valid prefix preserved" 5 (Lbrm.Archive.count b);
  checkb "records intact" true (Lbrm.Archive.find b 5 <> None);
  (* New appends land after the truncated tail and survive reopen. *)
  Lbrm.Archive.append b ~seq:6 ~epoch:0 ~payload:"six";
  Lbrm.Archive.close b;
  let c = Result.get_ok (Lbrm.Archive.open_ ~fs path) in
  checki "post-crash append persisted" 6 (Lbrm.Archive.count c);
  Lbrm.Archive.close c

let archive_iter_order () =
  let fs = Lbrm.Archive.in_memory () in
  let a = Result.get_ok (Lbrm.Archive.open_ ~fs "archive.log") in
  List.iter
    (fun seq -> Lbrm.Archive.append a ~seq ~epoch:0 ~payload:"")
    [ 3; 1; 2 ];
  let order = ref [] in
  Lbrm.Archive.iter (fun ~seq ~epoch:_ ~payload:_ -> order := seq :: !order) a;
  Alcotest.check (Alcotest.list Alcotest.int) "append order" [ 3; 1; 2 ]
    (List.rev !order);
  Lbrm.Archive.close a

let archive_reappend_noop_after_restart () =
  (* Regression: append's dedup must hold across a reopen of a
     multi-segment archive — for sequence numbers recovered into the
     active segment, into a dense sealed segment, and into a gappy
     sealed segment (whose membership probe goes through the sparse
     sidecar index), a rotate + restart must not make old sequence
     numbers appendable again. *)
  let fs = Lbrm.Archive.in_memory () in
  let reopen () =
    Result.get_ok
      (Lbrm.Archive.open_ ~segment_bytes:64 ~index_stride:2 ~fs "archive.log")
  in
  let orig seq = Printf.sprintf "original-%d" seq in
  let a = reopen () in
  (* 28-byte records, 64-byte segments: two records per segment, so
     this seals the dense {1,2}, the gappy {3,5}, and leaves 7 active. *)
  List.iter
    (fun seq -> Lbrm.Archive.append a ~seq ~epoch:(seq mod 3) ~payload:(orig seq))
    [ 1; 2; 3; 5; 7 ];
  checki "two sealed segments" 3 (List.length (Lbrm.Archive.segments a));
  Lbrm.Archive.close a;
  let b = reopen () in
  checki "recovered" 5 (Lbrm.Archive.count b);
  List.iter
    (fun seq -> Lbrm.Archive.append b ~seq ~epoch:9 ~payload:"duplicate")
    [ 1; 2; 3; 5; 7 ];
  checki "re-appends after restart are no-ops" 5 (Lbrm.Archive.count b);
  List.iter
    (fun seq ->
      match Lbrm.Archive.find b seq with
      | Some (e, p) when e = seq mod 3 && String.equal p (orig seq) -> ()
      | _ -> Alcotest.failf "seq %d overwritten after restart" seq)
    [ 1; 2; 3; 5; 7 ];
  (* The gap really is absent — dedup must not shadow it. *)
  Lbrm.Archive.append b ~seq:4 ~epoch:0 ~payload:"four";
  checki "gap fill lands" 6 (Lbrm.Archive.count b);
  Lbrm.Archive.close b;
  (* Second restart: iter must visit every sequence number exactly
     once — count alone could hide a duplicate record on disk. *)
  let c = reopen () in
  checki "no duplicates after a second restart" 6 (Lbrm.Archive.count c);
  let seen = Hashtbl.create 8 in
  Lbrm.Archive.iter
    (fun ~seq ~epoch:_ ~payload:_ ->
      if Hashtbl.mem seen seq then Alcotest.failf "seq %d archived twice" seq;
      Hashtbl.add seen seq ())
    c;
  checki "six distinct records on disk" 6 (Hashtbl.length seen);
  Lbrm.Archive.close c

let archive_real_fs () =
  (* The Unix-backed fs from lib/run: roundtrip, reopen, and torn-tail
     recovery against a real temp file. *)
  let fs = Lbrm_run.File_ops.real in
  let path = tmp_archive () in
  let a = Result.get_ok (Lbrm.Archive.open_ ~fs path) in
  for seq = 1 to 5 do
    Lbrm.Archive.append a ~seq ~epoch:(seq mod 2)
      ~payload:(Printf.sprintf "payload-%d" seq)
  done;
  Lbrm.Archive.sync a;
  (match Lbrm.Archive.find a 3 with
  | Some (1, "payload-3") -> ()
  | _ -> Alcotest.fail "real-fs lookup");
  let active = Lbrm.Archive.active_path a in
  Lbrm.Archive.close a;
  (* Crash mid-append: garbage at the tail of the real active segment. *)
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 active
  in
  output_string oc "\xA1\x0Cgarbage-torn-write";
  close_out oc;
  let b = Result.get_ok (Lbrm.Archive.open_ ~fs path) in
  checki "valid prefix preserved" 5 (Lbrm.Archive.count b);
  Lbrm.Archive.append b ~seq:6 ~epoch:0 ~payload:"six";
  Lbrm.Archive.close b;
  let c = Result.get_ok (Lbrm.Archive.open_ ~fs path) in
  checki "post-crash append persisted" 6 (Lbrm.Archive.count c);
  (match Lbrm.Archive.find c 6 with
  | Some (0, "six") -> ()
  | _ -> Alcotest.fail "post-crash append lookup");
  let leftovers = Lbrm.Archive.files c in
  Lbrm.Archive.close c;
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) leftovers

(* The on-disk format, pinned: a fixed history — out-of-order seqs, a
   duplicate, an explicit rotate, enough records for low-water records
   and rotations, a compaction, a reopen — and the MD5 of every file it
   leaves.  Any change to how records, sidecars or manifest entries are
   encoded must leave these digests as they are.  [pinned_history]
   runs the history over [fs] at [base], calls [after_lwm] right after
   its first low-water record, and returns the reopened archive. *)
let pinned_history ?(after_lwm = ignore) ~fs base =
  let a =
    Result.get_ok
      (Lbrm.Archive.open_ ~segment_bytes:160 ~index_stride:2 ~lwm_stride:4 ~fs
         base)
  in
  let append seq =
    Lbrm.Archive.append a ~seq ~epoch:(seq mod 5)
      ~payload:(String.init (seq mod 23) (fun i -> Char.chr (97 + ((seq + i) mod 26))))
  in
  List.iter append [ 3; 1; 2; 6; 5; 4 ];
  after_lwm ();
  Lbrm.Archive.append a ~seq:2 ~epoch:7 ~payload:"duplicate";
  Lbrm.Archive.rotate a;
  List.iter append [ 9; 7; 8; 12; 10; 11; 13; 15; 14; 16; 18; 17; 20; 19 ];
  checki "compacted two segments" 2
    (List.length (Lbrm.Archive.compact a ~floor:12));
  List.iter append [ 22; 21; 23; 24 ];
  Lbrm.Archive.close a;
  (* A lost sidecar is rebuilt from its data file on reopen. *)
  fs.Lbrm.Archive.remove (base ^ ".000003.idx");
  let b =
    Result.get_ok
      (Lbrm.Archive.open_ ~segment_bytes:160 ~index_stride:2 ~lwm_stride:4 ~fs
         base)
  in
  checki "floor" 24 (Lbrm.Archive.low_water b);
  b

let pinned_digests =
  [
    ("pin.log.manifest", "8b3e9b5790fb19da44fcca5bfacab3c4");
    ("pin.log.000003.seg", "757c833c04162d8e290a2dd0f6be9d52");
    ("pin.log.000003.idx", "fc123137bd78f811ef092c5f3e3250f3");
    ("pin.log.000004.seg", "8dfd0e7395793a75db0c291da7cb8826");
    ("pin.log.000004.idx", "ffc8d6e0edf0a18398d2b6aa9a838a9c");
    ("pin.log.000005.seg", "72fc7ec875b79ed13feda6a4d9205de6");
  ]

let archive_format_pinned () =
  let fs = Lbrm.Archive.in_memory () in
  let b = pinned_history ~fs "pin.log" in
  let digests =
    List.map
      (fun path ->
        let len = fs.Lbrm.Archive.size path in
        (path, Digest.to_hex (Digest.string (fs.read_at path ~pos:0 ~len))))
      (Lbrm.Archive.files b)
  in
  Alcotest.(check (list (pair string string)))
    "file digests" pinned_digests digests;
  checkb "compacted files removed" false
    (List.exists fs.exists
       [ "pin.log.000001.seg"; "pin.log.000001.idx"; "pin.log.000002.seg" ]);
  Lbrm.Archive.close b

let tmp_dir () =
  let dir = Filename.temp_file "lbrm_archive" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* On disk, around the fs. *)
let disk_size path = (Unix.stat path).Unix.st_size

(* Run [f] inside a File_ops group that is closed however [f] ends: the
   group is process-wide, and one left open by a failed assertion would
   hold the writes of every later real-fs case. *)
let in_group f =
  Lbrm_run.File_ops.begin_group ();
  Fun.protect ~finally:Lbrm_run.File_ops.end_group f

(* Group commit changes when bytes reach disk, never which: the pinned
   history over the real fs leaves the pinned files whether it runs
   inside groups or outside.  Inside, the first low-water record is
   held until the group ends.  File_ops.metrics shows what it saves:
   fewer fsyncs inside groups, and far fewer opens than appends. *)
let archive_group_commit_same_files () =
  let module File_ops = Lbrm_run.File_ops in
  let kernel name = Lbrm_util.Metrics.count File_ops.metrics name in
  let appends = ref 0 in
  let fs =
    {
      File_ops.real with
      append =
        (fun path data ->
          incr appends;
          File_ops.real.append path data);
    }
  in
  let run ~grouped =
    let fsyncs = kernel "file_ops.fsyncs" in
    let dir = tmp_dir () in
    let base = Filename.concat dir "pin.log" in
    let manifest = base ^ ".manifest" in
    let after_lwm () =
      if grouped then begin
        (* The low-water record waits for the fsync of the segment
           under it, which waits for the end, and the activate record
           ahead of it in the manifest waits with it. *)
        checkb "low-water record held" false (Sys.file_exists manifest);
        (* The segment's records came while no fsync was deferred: the
           fsync wrote them alone instead of committing the group. *)
        checkb "records under it written" true
          (disk_size (base ^ ".000001.seg") > 0);
        File_ops.end_group ();
        Fun.protect ~finally:File_ops.begin_group (fun () ->
            checki "low-water record written at end_group" 46
              (disk_size manifest))
      end
      else checki "low-water record written at once" 46 (disk_size manifest)
    in
    let history () = pinned_history ~after_lwm ~fs base in
    let b = if grouped then in_group history else history () in
    let fsyncs = kernel "file_ops.fsyncs" - fsyncs in
    let digests =
      List.map
        (fun path ->
          (Filename.basename path, Digest.to_hex (Digest.file path)))
        (Lbrm.Archive.files b)
    in
    Lbrm.Archive.close b;
    remove_dir dir;
    (digests, fsyncs)
  in
  let plain, plain_fsyncs = run ~grouped:false in
  Alcotest.(check (list (pair string string)))
    "ungrouped: the pinned files" pinned_digests plain;
  let grouped, grouped_fsyncs = run ~grouped:true in
  Alcotest.(check (list (pair string string)))
    "grouped: the same files" plain grouped;
  checkb "fewer fsyncs inside groups" true (grouped_fsyncs < plain_fsyncs);
  (* Shaped like a logger's spills: 512 in-order appends, a low-water
     record every 32, in groups of 64 as a receive drain would make. *)
  let drains ~grouped =
    let fsyncs = kernel "file_ops.fsyncs" and opens = kernel "file_ops.opens" in
    appends := 0;
    let dir = tmp_dir () in
    let a =
      Result.get_ok (Lbrm.Archive.open_ ~fs (Filename.concat dir "drain.log"))
    in
    for drain = 0 to 7 do
      let spill () =
        for seq = (64 * drain) + 1 to 64 * (drain + 1) do
          Lbrm.Archive.append a ~seq ~epoch:0 ~payload:"spilled"
        done
      in
      if grouped then in_group spill else spill ()
    done;
    let fsyncs = kernel "file_ops.fsyncs" - fsyncs
    and opens = kernel "file_ops.opens" - opens in
    Lbrm.Archive.close a;
    remove_dir dir;
    checkb "an open per 20 appends at most" true (20 * opens < !appends);
    fsyncs
  in
  let plain_fsyncs = drains ~grouped:false in
  checki "ungrouped: an fsync per low-water record" 16 plain_fsyncs;
  checki "grouped: one per drain" 8 (drains ~grouped:true)

(* A cached handle lives until its path is fsynced: after [close], the
   archive's files may be removed behind the fs and the archive rebuilt
   at the same base, and the new records land in the new files. *)
let archive_real_fs_rebuilt () =
  let fs = Lbrm_run.File_ops.real in
  let dir = tmp_dir () in
  let base = Filename.concat dir "rebuilt.log" in
  let a = Result.get_ok (Lbrm.Archive.open_ ~fs base) in
  for seq = 1 to 5 do
    Lbrm.Archive.append a ~seq ~epoch:0 ~payload:(Printf.sprintf "old-%d" seq)
  done;
  let files = Lbrm.Archive.files a in
  Lbrm.Archive.close a;
  List.iter Sys.remove files;
  let b = Result.get_ok (Lbrm.Archive.open_ ~fs base) in
  for seq = 1 to 3 do
    Lbrm.Archive.append b ~seq ~epoch:1 ~payload:(Printf.sprintf "new-%d" seq)
  done;
  Lbrm.Archive.close b;
  let c = Result.get_ok (Lbrm.Archive.open_ ~fs base) in
  checki "only the new records" 3 (Lbrm.Archive.count c);
  (match Lbrm.Archive.find c 2 with
  | Some (1, "new-2") -> ()
  | _ -> Alcotest.fail "new record not in the new files");
  checkb "new segment holds them" true
    (disk_size (Lbrm.Archive.active_path c) > 0);
  Lbrm.Archive.close c;
  remove_dir dir

let archive_real_fsync_errors () =
  (* A failed fsync must surface: the archive fsyncs the active segment
     before every low-water record, and a swallowed failure would let
     that record claim data that never reached disk.  fsync on a
     character device fails with EINVAL on Linux. *)
  match Lbrm_run.File_ops.real.fsync "/dev/null" with
  | () -> Alcotest.fail "fsync of /dev/null reported success"
  | exception Lbrm.Archive.Fs_error msg ->
      checkb "names the call and the path" true
        (String.starts_with ~prefix:"fsync /dev/null: " msg)

(* A deferred fsync that fails keeps the bytes held behind it out of
   their file, and the next call on that file raises, once. *)
let archive_real_deferred_fsync_errors () =
  let module File_ops = Lbrm_run.File_ops in
  let fs = File_ops.real in
  let path = Filename.temp_file "lbrm_held" ".seg" in
  in_group (fun () ->
      fs.fsync "/dev/null";
      fs.append path "held behind the fsync");
  checki "held bytes kept out" 0 (disk_size path);
  (match fs.size path with
  | _ -> Alcotest.fail "dropped bytes went unreported"
  | exception Lbrm.Archive.Fs_error msg ->
      checkb "names the path" true
        (String.starts_with ~prefix:("append " ^ path) msg));
  checki "reported once" 0 (fs.size path);
  (match fs.exists "/dev/null" with
  | _ -> Alcotest.fail "deferred fsync failure went unreported"
  | exception Lbrm.Archive.Fs_error msg ->
      checkb "names the call and the path" true
        (String.starts_with ~prefix:"fsync /dev/null: " msg));
  fs.remove path

(* Inside a group the low-water record is tied to the segment's
   deferred fsync: when [Archive.sync] asks for the manifest's fsync,
   the record reaches disk only with the segment's kernel fsync before
   it, never alone. *)
let archive_real_lwm_waits_for_fsync () =
  let module File_ops = Lbrm_run.File_ops in
  let fsyncs () = Lbrm_util.Metrics.count File_ops.metrics "file_ops.fsyncs" in
  let dir = tmp_dir () in
  let base = Filename.concat dir "tied.log" in
  let a =
    in_group (fun () ->
        let a =
          Result.get_ok
            (Lbrm.Archive.open_ ~lwm_stride:4 ~fs:File_ops.real base)
        in
        for seq = 1 to 4 do
          Lbrm.Archive.append a ~seq ~epoch:0 ~payload:"under the mark"
        done;
        let before = fsyncs () in
        Lbrm.Archive.sync a;
        checki "low-water record on disk" 46 (disk_size (base ^ ".manifest"));
        checki "after the segment's fsync" 1 (fsyncs () - before);
        a)
  in
  Lbrm.Archive.close a;
  remove_dir dir

(* A held write that fails at the commit stays on its path too: the
   next call there raises it, once.  Writing to /dev/full fails with
   ENOSPC; the second path's directory is gone by the commit, so its
   open fails. *)
let archive_real_held_write_errors () =
  let module File_ops = Lbrm_run.File_ops in
  let fs = File_ops.real in
  let dir = tmp_dir () in
  let gone = Filename.concat dir "gone.seg" in
  let raises what path call =
    match call path with
    | _ -> Alcotest.fail (what ^ " went unreported")
    | exception Lbrm.Archive.Fs_error msg ->
        checkb "names the call and the path" true
          (String.starts_with ~prefix:("append " ^ path ^ ": ") msg)
  in
  in_group (fun () ->
      fs.append "/dev/full" "held, then refused";
      fs.append gone "held, then its directory goes";
      Unix.rmdir dir);
  raises "failed held write" "/dev/full" fs.exists;
  checkb "reported once" true (fs.exists "/dev/full");
  raises "failed held open" gone fs.exists;
  checkb "reported once" false (fs.exists gone);
  (* Outside a group the write fails at once. *)
  raises "failed write" "/dev/full" (fun p -> fs.append p "refused");
  checkb "nothing left to report" true (fs.exists "/dev/full")

let logger_serves_from_archive () =
  (* Bounded memory + archive: old packets evicted from RAM are still
     servable from disk. *)
  let archive =
    Result.get_ok
      (Lbrm.Archive.open_ ~fs:(Lbrm.Archive.in_memory ()) "archive.log")
  in
  let cfg = { plain with retention = Log_store.Keep_last 3 } in
  let l =
    Logger.create cfg ~self:5 ~source:1 ~parent:2 ~archive ~rng:(rng ()) ()
  in
  for seq = 1 to 10 do
    ignore
      (Logger.handle_message l ~now:0. ~src:1
         (Message.Data { seq; epoch = 0; payload = p (Printf.sprintf "p%d" seq) }))
  done;
  checki "RAM bounded" 3 (Log_store.count (Logger.store l));
  checki "disk holds the evicted" 7 (Lbrm.Archive.count archive);
  (* Ask for an ancient packet: served from disk, not chased upward. *)
  let a = Logger.handle_message l ~now:1. ~src:10 (Message.Nack { seqs = [ 1 ] }) in
  (match unicasts_to 10 a with
  | [ Message.Retrans { seq = 1; payload = pl; _ } ] when pstr pl = "p1" -> ()
  | _ -> Alcotest.fail "expected repair from the archive");
  checkb "no uplink chase" true (unicasts_to 2 a = []);
  Lbrm.Archive.close archive

(* ---- Pacer (5: congestion-responsive sending) ---- *)

let pacer_backs_off_and_recovers () =
  let p =
    Lbrm.Pacer.create ~min_interval:0.1 ~max_interval:5. ~backoff:2.
      ~recovery:0.5 ~target_loss:0.1 ()
  in
  checkf 1e-9 "starts at floor" 0.1 (Lbrm.Pacer.interval p);
  checkb "at floor" true (Lbrm.Pacer.at_floor p);
  (* Heavy loss: multiplicative backoff. *)
  Lbrm.Pacer.on_feedback p ~missing:5 ~expected:10;
  checkf 1e-9 "doubled" 0.2 (Lbrm.Pacer.interval p);
  Lbrm.Pacer.on_feedback p ~missing:10 ~expected:10;
  checkf 1e-9 "doubled again" 0.4 (Lbrm.Pacer.interval p);
  checki "two backoffs" 2 (Lbrm.Pacer.backoffs p);
  (* Clean packets recover half the excess each time. *)
  Lbrm.Pacer.on_feedback p ~missing:0 ~expected:10;
  checkf 1e-9 "recovering" 0.25 (Lbrm.Pacer.interval p);
  for _ = 1 to 60 do
    Lbrm.Pacer.on_feedback p ~missing:0 ~expected:10
  done;
  checkb "back at floor" true (Lbrm.Pacer.at_floor p)

let pacer_ceiling () =
  let p = Lbrm.Pacer.create ~min_interval:0.1 ~max_interval:1. ~backoff:4. () in
  for _ = 1 to 10 do
    Lbrm.Pacer.on_feedback p ~missing:9 ~expected:10
  done;
  checkf 1e-9 "clamped at ceiling" 1. (Lbrm.Pacer.interval p);
  (* Zero expected acks carry no information. *)
  let before = Lbrm.Pacer.interval p in
  Lbrm.Pacer.on_feedback p ~missing:0 ~expected:0;
  checkf 1e-9 "no-op on empty epochs" before (Lbrm.Pacer.interval p)

let statack_emits_feedback () =
  let retained = Hashtbl.create 1 in
  Hashtbl.replace retained 5 ("five", 1);
  let sa =
    Stat_ack.create statack_cfg ~self:0 ~retained ~initial_estimate:10. ()
  in
  settle_first_epoch sa ~ackers:[ 101; 102; 103 ];
  ignore (Stat_ack.on_data_sent sa ~now:1. 5);
  ignore
    (Stat_ack.on_message sa ~now:1.02
       (Message.Stat_ack { epoch = 1; seq = 5; logger = 101 }));
  let actions, _ = Stat_ack.on_timer sa ~now:1.2 (Io.K_twait 5) in
  checkb "re-multicast, then feedback carrying the miss count" true
    (match actions with
    | [
     Io.Set_timer (Io.K_twait 5, _);
     Io.Notify (Io.N_remulticast 5);
     Io.Send (_, Message.Data { seq = 5; epoch = 1; _ });
     Io.Notify (Io.N_feedback { seq = 5; missing = 2; expected = 3 });
    ] ->
        true
    | _ -> false);
  checki "one re-multicast" 1 (Stat_ack.remulticasts sa)

let logger_statack_grace_delay () =
  (* 2.3.2: with statistical acking on and t_wait > h_min, a secondary
     discovering its own gap waits t_wait - h_min extra before chasing
     the parent, giving the source's re-multicast a chance. *)
  let cfg_on = { cfg with t_wait_init = 1.0; h_min = 0.25 } in
  let l = Logger.create cfg_on ~self:5 ~source:1 ~parent:2 ~rng:(rng ()) () in
  ignore
    (Logger.handle_message l ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  let a = Logger.handle_message l ~now:1. ~src:1
      (Message.Data { seq = 3; epoch = 0; payload = p "c" })
  in
  (match timers_set a with
  | [ (Io.K_uplink_nack 2, delay) ] ->
      checkf 1e-9 "grace = nack_delay + (t_wait - h_min)"
        (cfg_on.nack_delay +. 0.75) delay
  | _ -> Alcotest.fail "expected one uplink chase timer");
  (* Without stat-ack the chase is immediate (batching delay only). *)
  let l2 = Logger.create plain ~self:5 ~source:1 ~parent:2 ~rng:(rng ()) () in
  ignore
    (Logger.handle_message l2 ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  let a2 = Logger.handle_message l2 ~now:1. ~src:1
      (Message.Data { seq = 3; epoch = 0; payload = p "c" })
  in
  match timers_set a2 with
  | [ (Io.K_uplink_nack 2, delay) ] -> checkf 1e-9 "plain" plain.nack_delay delay
  | _ -> Alcotest.fail "expected one uplink chase timer"


(* ---- additional edge cases ---- *)

let source_failover_no_replicas () =
  (* With no replicas configured, exhausting the deposit retry budget
     can only raise suspicion; there is nobody to promote. *)
  let cfg = { plain with deposit_retry_limit = 0 } in
  let s = Source.create cfg ~self:1 ~primary:2 () in
  ignore (Source.send s ~now:0. "a");
  let a = Source.handle_timer s ~now:0.5 (Io.K_deposit 1) in
  checkb "suspected" true
    (List.exists (function Io.N_primary_suspected -> true | _ -> false)
       (notices a));
  checki "primary unchanged" 2 (Source.primary s)

let source_failover_no_statuses () =
  (* Replicas exist but none answer the query: the source keeps the old
     primary rather than promoting blindly. *)
  let cfg = { plain with deposit_retry_limit = 0 } in
  let s = Source.create cfg ~self:1 ~primary:2 ~replicas:[ 3 ] () in
  ignore (Source.send s ~now:0. "a");
  ignore (Source.handle_timer s ~now:0.5 (Io.K_deposit 1));
  let a = Source.handle_timer s ~now:1.5 (Io.K_failover 1) in
  checki "primary unchanged" 2 (Source.primary s);
  checkb "no promote sent" true
    (List.for_all
       (function _, Message.Promote _ -> false | _ -> true)
       (sends a))

let source_failover_single_shot () =
  (* While a fail-over query is in flight, further deposit timeouts must
     not start a second one. *)
  let cfg = { plain with deposit_retry_limit = 0 } in
  let s = Source.create cfg ~self:1 ~primary:2 ~replicas:[ 3 ] () in
  ignore (Source.send s ~now:0. "a");
  ignore (Source.send s ~now:0.1 "b");
  let a1 = Source.handle_timer s ~now:0.5 (Io.K_deposit 1) in
  checkb "first starts the query" true (unicasts_to 3 a1 <> []);
  let a2 = Source.handle_timer s ~now:0.6 (Io.K_deposit 2) in
  checkb "second does not re-query" true (unicasts_to 3 a2 = [])

let receiver_reorder_within_nack_delay () =
  (* Packets 1,3,2 arriving within the NACK batching delay: the gap is
     plugged before the flush fires, so no NACK goes out. *)
  let r = Receiver.create recv_cfg ~self:10 ~source:1 ~loggers:[ 5 ] in
  ignore
    (Receiver.handle_message r ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  ignore
    (Receiver.handle_message r ~now:0.001 ~src:1
       (Message.Data { seq = 3; epoch = 0; payload = p "c" }));
  ignore
    (Receiver.handle_message r ~now:0.005 ~src:1
       (Message.Data { seq = 2; epoch = 0; payload = p "b" }));
  (* The flush timer fires anyway (it was armed), but finds nothing. *)
  let a = Receiver.handle_timer r ~now:0.011 Io.K_nack_flush in
  checkb "no NACK for healed reordering" true (sends a = []);
  checki "no nacks counted" 0 (Receiver.nacks_sent r)

let receiver_duplicate_repair_ignored () =
  let r = Receiver.create recv_cfg ~self:10 ~source:1 ~loggers:[ 5 ] in
  ignore
    (Receiver.handle_message r ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  ignore
    (Receiver.handle_message r ~now:1. ~src:1
       (Message.Data { seq = 3; epoch = 0; payload = p "c" }));
  let a1 = Receiver.handle_message r ~now:1.5 ~src:5
      (Message.Retrans { seq = 2; epoch = 0; payload = p "b" })
  in
  checki "first repair delivers" 1 (List.length (delivered a1));
  let a2 = Receiver.handle_message r ~now:1.6 ~src:6
      (Message.Retrans { seq = 2; epoch = 0; payload = p "b" })
  in
  checki "duplicate repair silent" 0 (List.length (delivered a2));
  checki "delivered once" 3 (Receiver.delivered r)

let statack_previous_epoch_overlap () =
  (* 2.3.1: "the source ... expects some overlap in acking between
     epochs" - a packet sent in epoch 1 can still be completed by
     epoch-1 designated ackers after epoch 2 has been announced. *)
  let sa = Stat_ack.create statack_cfg ~self:0 ~retained:(Hashtbl.create 1)
      ~initial_estimate:10. () in
  settle_first_epoch sa ~ackers:[ 101; 102; 103 ];
  ignore (Stat_ack.on_data_sent sa ~now:1. 5);
  (* Epoch 2 setup begins (periodic timer)... *)
  ignore (Stat_ack.on_timer sa ~now:1.01 Io.K_epoch_start);
  (* ...but epoch-1 acks for the pending packet still count. *)
  let feed logger =
    Stat_ack.on_message sa ~now:1.05
      (Message.Stat_ack { epoch = 1; seq = 5; logger })
  in
  ignore (feed 101);
  ignore (feed 102);
  checkb "completed across the epoch boundary" true
    (snd (feed 103) = Some 5)

let source_heartbeat_fields () =
  let s = Source.create plain ~self:1 ~primary:2 () in
  ignore (Source.start s ~now:0.);
  let a1 = Source.handle_timer s ~now:0.25 Io.K_heartbeat in
  let a2 = Source.handle_timer s ~now:0.75 Io.K_heartbeat in
  (match (multicasts a1, multicasts a2) with
  | ( [ (_, _, Message.Heartbeat { seq = 0; hb_index = 1; _ }) ],
      [ (_, _, Message.Heartbeat { seq = 0; hb_index = 2; _ }) ] ) ->
      ()
  | _ -> Alcotest.fail "expected hb_index 1 then 2 with seq 0 pre-data");
  ignore (Source.send s ~now:1. "x");
  let a3 = Source.handle_timer s ~now:1.25 Io.K_heartbeat in
  match multicasts a3 with
  | [ (_, _, Message.Heartbeat { seq = 1; _ }) ] -> ()
  | _ -> Alcotest.fail "heartbeat repeats the data seq"

let logger_replica_retry_laggards () =
  let l = Logger.create plain ~self:2 ~source:1 ~replicas:[ 3; 4 ] ~rng:(rng ()) () in
  ignore
    (Logger.handle_message l ~now:0. ~src:1
       (Message.Log_deposit { seq = 1; epoch = 0; payload = p "a" }));
  (* Replica 3 acks; replica 4 stays silent. *)
  ignore (Logger.handle_message l ~now:0.1 ~src:3 (Message.Replica_ack { seq = 1 }));
  let a = Logger.handle_timer l ~now:0.6 (Io.K_replica_retry 1) in
  checkb "laggard re-sent" true
    (List.exists
       (function Message.Replica_update { seq = 1; _ } -> true | _ -> false)
       (unicasts_to 4 a));
  checkb "acked replica left alone" true (unicasts_to 3 a = []);
  (* Once everyone acked, the retry goes quiet. *)
  ignore (Logger.handle_message l ~now:0.7 ~src:4 (Message.Replica_ack { seq = 1 }));
  checkb "retry quiesces" true
    (Logger.handle_timer l ~now:1.2 (Io.K_replica_retry 1) = [])

(* The primary cancels a seq's replica-retry timer once every replica
   has acked it, and only timers that are still armed: one cancel per
   armed timer, none for a retry that already fired and went quiet. *)
let logger_replica_retry_cancelled_when_replicated () =
  let l =
    Logger.create plain ~self:2 ~source:1 ~replicas:[ 3; 4 ] ~rng:(rng ()) ()
  in
  let cancels actions =
    List.filter_map
      (function Io.Cancel_timer (Io.K_replica_retry s) -> Some s | _ -> None)
      actions
  in
  let deposit seq =
    timers_set
      (Logger.handle_message l ~now:0. ~src:1
         (Message.Log_deposit { seq; epoch = 0; payload = p "a" }))
  in
  let ack ~src seq =
    cancels
      (Logger.handle_message l ~now:0.1 ~src (Message.Replica_ack { seq }))
  in
  List.iter
    (fun seq ->
      checkb "retry armed" true
        (List.mem_assoc (Io.K_replica_retry seq) (deposit seq)))
    [ 1; 2; 3 ];
  Alcotest.(check (list int)) "one replica is not enough" [] (ack ~src:3 3);
  Alcotest.(check (list int)) "covered seqs only" [ 1; 2 ]
    (List.sort compare (ack ~src:4 2));
  Alcotest.(check (list int)) "the rest" [ 3 ] (ack ~src:4 3);
  Alcotest.(check (list int)) "never twice" [] (ack ~src:4 3);
  (* A retry that fires with no laggard left is not re-armed, so no
     cancel follows it. *)
  ignore (deposit 4);
  Alcotest.(check (list int)) "replica 4 still lags" [] (ack ~src:3 4);
  ignore
    (Logger.handle_message l ~now:0.2 ~src:1
       (Message.Promote { replicas = [ 3 ] }));
  checkb "quiet retry" true
    (Logger.handle_timer l ~now:0.6 (Io.K_replica_retry 4) = []);
  ignore (deposit 5);
  Alcotest.(check (list int)) "fired timer not cancelled" [ 5 ] (ack ~src:3 5);
  (* An ack covering far more seqs than are armed (here the first ack
     after seqs 1..99 went by unseen) cancels just the armed ones. *)
  let l =
    Logger.create plain ~self:2 ~source:1 ~replicas:[ 3 ] ~rng:(rng ()) ()
  in
  List.iter
    (fun seq ->
      ignore
        (Logger.handle_message l ~now:0. ~src:1
           (Message.Log_deposit { seq; epoch = 0; payload = p "a" })))
    [ 100; 101 ];
  Alcotest.(check (list int)) "wide span, armed only" [ 100 ]
    (cancels
       (Logger.handle_message l ~now:0.1 ~src:3
          (Message.Replica_ack { seq = 100 })))

let source_statack_remulticast_resends_data () =
  (* Full source-level stat-ack cycle driven by hand: epoch settles, a
     packet misses its acks, and the source re-multicasts the retained
     payload as a fresh Data packet before the round's feedback; a
     second packet ends with a full ACK count. *)
  let cfg = { statack_cfg with k_ackers = 2 } in
  let s = Source.create cfg ~self:1 ~primary:2 ~initial_estimate:10. () in
  ignore (Source.start s ~now:0.);
  List.iter
    (fun logger ->
      ignore
        (Source.handle_message s ~now:0.01 ~src:logger
           (Message.Acker_reply { epoch = 1; logger })))
    [ 101; 102 ];
  ignore (Source.handle_timer s ~now:0.4 (Io.K_epoch_settle 1));
  checki "epoch live" 1 (Source.current_epoch s);
  let shape = function
    | Io.Set_timer (Io.K_twait seq, _) -> Printf.sprintf "twait %d" seq
    | Io.Cancel_timer (Io.K_twait seq) -> Printf.sprintf "cancel %d" seq
    | Io.Notify (Io.N_remulticast seq) -> Printf.sprintf "remulticast %d" seq
    | Io.Send (_, Message.Data { seq; payload; _ }) ->
        Printf.sprintf "data %d %s" seq (pstr payload)
    | Io.Notify (Io.N_feedback { seq; missing; expected }) ->
        Printf.sprintf "feedback %d %d/%d" seq missing expected
    | a -> Format.asprintf "%a" Io.pp_action a
  in
  let shapes = Alcotest.(check (list string)) in
  ignore (Source.send s ~now:1. "precious");
  (* No acks arrive; the decision timer fires. *)
  shapes "re-multicast of the retained payload, then its feedback"
    [ "twait 1"; "remulticast 1"; "data 1 precious"; "feedback 1 2/2" ]
    (List.map shape (Source.handle_timer s ~now:1.3 (Io.K_twait 1)));
  checki "send plus re-multicast" 2 (Source.data_multicasts s);
  ignore (Source.send s ~now:2. "two");
  ignore
    (Source.handle_message s ~now:2.01 ~src:2
       (Message.Log_ack { primary_seq = 2; replica_seq = 2 }));
  checki "both still retained for stat-ack" 2 (Source.retained s);
  let ack logger =
    Source.handle_message s ~now:2.05 ~src:logger
      (Message.Stat_ack { epoch = 1; seq = 2; logger })
  in
  ignore (ack 101);
  shapes "full ACK count: cancel, then feedback"
    [ "cancel 2"; "feedback 2 0/2" ]
    (List.map shape (ack 102));
  checki "acked and durable: dropped" 1 (Source.retained s)

(* ---- a tiny action-shape property ---- *)

let prop_source_send_always_deposits =
  QCheck.Test.make ~count:100
    ~name:"source: every send carries a data multicast and a deposit"
    QCheck.(string_gen_of_size Gen.(0 -- 200) Gen.printable)
    (fun payload ->
      let s = Source.create plain ~self:1 ~primary:2 () in
      let actions = Source.send s ~now:0. payload in
      List.mem "data" (sent_kinds actions)
      && List.mem "log_deposit" (sent_kinds actions))

(* However large a gap, every NACK a flush sends encodes within one
   datagram slot, and copy 0 carries every pursued seq exactly once, in
   ascending order; extra copies for multiply-missed seqs fit too. *)
let prop_flush_nacks_fit_slot =
  QCheck.Test.make ~count:100 ~name:"pursuit: every flushed NACK fits the slot"
    (* no shrinker: shrinking a 1600-seq gap set one element at a time
       would outlast any test budget *)
    (QCheck.make
       ~print:(fun (seqs, most) ->
         Printf.sprintf "%d seqs, up to %d copies" (List.length seqs) most)
       QCheck.Gen.(
         pair (list_size (0 -- 1600) (int_range 1 100_000)) (int_range 1 4)))
    (fun (seqs, most) ->
      let seqs = List.sort_uniq Int.compare seqs in
      let pursuit =
        Lbrm.Pursuit.create
          { cfg with remcast_request_threshold = most }
          ~self:9 ~source:1 ~loggers:[ 2 ]
          ~missing:(fun s -> 1 + (s mod most))
          ~write_off:ignore ~highest:(fun () -> 0)
      in
      ignore (List_view.Pursuit.open_ pursuit ~now:0. seqs);
      let nacks =
        List.filter_map
          (function
            | Io.Send (_, (Message.Nack _ as m)) -> Some m | _ -> None)
          (List_view.Pursuit.handle_timer pursuit ~now:0. Io.K_nack_flush)
      in
      let fits m =
        match Lbrm_wire.Codec.encode m with
        | Ok s -> String.length s <= Lbrm_wire.Codec.slot_size
        | Error _ -> false
      in
      let copy0 =
        (* copy 0's NACKs come first and, between them, carry every seq *)
        let n = List.length seqs in
        let rec take acc got = function
          | Message.Nack { seqs } :: rest when got < n ->
              take (List.rev_append seqs acc) (got + List.length seqs) rest
          | _ -> List.rev acc
        in
        take [] 0 nacks
      in
      List.for_all fits nacks && List.equal Int.equal copy0 seqs)

(* With a §7 channel, a gap the ladder abandons leaves the channel: a
   pursuit that ends without a repair still unsubscribes once nothing
   else is pursued. *)
let pursuit_abandon_leaves_channel () =
  let cfg = { cfg with rchannel_group = Some 7; nack_retry_limit = 1 } in
  let pursuit =
    Lbrm.Pursuit.create cfg ~self:9 ~source:1 ~loggers:[ 2 ]
      ~missing:(fun _ -> 1)
      ~write_off:ignore
      ~highest:(fun () -> 5)
  in
  (* Fire every ladder timer the actions arm, in the order armed. *)
  let rec run acc = function
    | [] -> List.rev acc
    | action :: rest ->
        let fired =
          match action with
          | Io.Set_timer (((Io.K_nack_flush | Io.K_nack_escalate _) as key), _)
            ->
              List_view.Pursuit.handle_timer pursuit ~now:0. key
          | _ -> []
        in
        run (action :: acc) (rest @ fired)
  in
  let channel =
    List.filter_map
      (function
        | Io.Join g -> Some (Printf.sprintf "join %d" g)
        | Io.Leave g -> Some (Printf.sprintf "leave %d" g)
        | _ -> None)
      (run [] (List_view.Pursuit.open_ pursuit ~now:0. [ 5 ]))
  in
  checki "the gap was abandoned" 1 (Lbrm.Pursuit.gave_up pursuit);
  Alcotest.(check (list string))
    "joined, then left" [ "join 7"; "leave 7" ] channel

let () =
  Alcotest.run "core"
    [
      ("config", [ Alcotest.test_case "validation" `Quick config_validation ]);
      ( "log_store",
        [
          Alcotest.test_case "basics" `Quick store_basics;
          Alcotest.test_case "contiguity" `Quick store_contiguity;
          Alcotest.test_case "keep_last eviction" `Quick store_keep_last;
          Alcotest.test_case "lifetime expiry" `Quick store_lifetime;
          Alcotest.test_case "bounded under 100k-cycle churn" `Quick
            store_churn_stays_bounded;
          qtest store_prop_get_after_add;
        ] );
      ( "group_estimate",
        [
          Alcotest.test_case "probing converges" `Quick probing_converges;
          Alcotest.test_case "small group exact" `Quick probing_small_group;
          Alcotest.test_case "table 2 formulas" `Quick stddev_table2;
          Alcotest.test_case "EWMA refinement converges" `Quick
            refine_moves_toward_truth;
          Alcotest.test_case "hotlist" `Quick hotlist_flags_faulty;
        ] );
      ( "stat_ack",
        [
          Alcotest.test_case "epoch lifecycle" `Quick statack_epoch_lifecycle;
          Alcotest.test_case "complete acks close tracking" `Quick
            statack_complete_acks_release;
          Alcotest.test_case "missing acks re-multicast" `Quick
            statack_missing_acks_remulticast;
          Alcotest.test_case "single-site loss left to unicast" `Quick
            statack_single_site_loss_unicast;
          Alcotest.test_case "unsolicited ackers hotlisted" `Quick
            statack_hotlist_unsolicited;
          Alcotest.test_case "t_wait adapts" `Quick statack_twait_adapts;
        ] );
      ( "source",
        [
          Alcotest.test_case "send actions" `Quick source_send_actions;
          Alcotest.test_case "release on log ack" `Quick
            source_release_on_log_ack;
          Alcotest.test_case "deposit retry" `Quick source_deposit_retry;
          Alcotest.test_case "heartbeat piggyback" `Quick
            source_heartbeat_epoch_and_piggyback;
          Alcotest.test_case "answers who-is-primary" `Quick
            source_answers_who_is_primary;
          Alcotest.test_case "fail-over promotes best replica" `Quick
            source_failover_promotes_best;
          Alcotest.test_case "promote stays wire-encodable" `Quick
            source_promote_stays_encodable;
          Alcotest.test_case "retained bounded over 100k + fail-over" `Quick
            source_retained_bounded_100k;
          qtest prop_source_send_always_deposits;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "delivers in order" `Quick
            receiver_delivers_in_order;
          Alcotest.test_case "gap NACKs local logger" `Quick
            receiver_gap_nacks_local_logger;
          Alcotest.test_case "retrans closes pursuit" `Quick
            receiver_retrans_closes_pursuit;
          Alcotest.test_case "escalates then gives up" `Quick
            receiver_escalates_then_gives_up;
          Alcotest.test_case "heartbeat reveals loss" `Quick
            receiver_heartbeat_reveals_loss;
          Alcotest.test_case "heartbeat piggyback delivers" `Quick
            receiver_heartbeat_piggyback_delivers;
          Alcotest.test_case "recover from start" `Quick
            receiver_recover_from_start;
          Alcotest.test_case "silence queries latest" `Quick
            receiver_silence_queries_latest;
          Alcotest.test_case "rediscovery after unanswered requests" `Quick
            receiver_rediscovery_after_unanswered;
          Alcotest.test_case "rediscovery on prolonged silence" `Quick
            receiver_silence_triggers_rediscovery;
          qtest prop_flush_nacks_fit_slot;
          Alcotest.test_case "abandoned gap leaves the channel" `Quick
            pursuit_abandon_leaves_channel;
        ] );
      ( "logger",
        [
          Alcotest.test_case "secondary serves from log" `Quick
            logger_secondary_serves_from_log;
          Alcotest.test_case "secondary chases parent" `Quick
            logger_secondary_chases_parent;
          Alcotest.test_case "re-multicast threshold" `Quick
            logger_remulticast_threshold;
          Alcotest.test_case "latest query" `Quick logger_latest_query;
          Alcotest.test_case "primary acks deposits" `Quick
            logger_primary_acks_deposits;
          Alcotest.test_case "primary with replicas" `Quick
            logger_primary_with_replicas;
          Alcotest.test_case "replica role and promotion" `Quick
            logger_replica_role_and_promotion;
          Alcotest.test_case "designated acking" `Quick logger_designated_acking;
          Alcotest.test_case "p=0 never designates" `Quick
            logger_never_designated_at_p0;
          Alcotest.test_case "discovery reply" `Quick logger_discovery_reply;
          Alcotest.test_case "stat-ack grace before uplink chase (2.3.2)"
            `Quick logger_statack_grace_delay;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "expanding ring" `Quick discovery_expanding_ring;
          Alcotest.test_case "gives up past max ttl" `Quick discovery_gives_up;
          Alcotest.test_case "stale reply ignored" `Quick
            discovery_stale_reply_ignored;
        ] );
      ( "archive",
        [
          Alcotest.test_case "roundtrip" `Quick archive_roundtrip;
          Alcotest.test_case "survives reopen" `Quick archive_survives_reopen;
          Alcotest.test_case "truncates torn tail" `Quick
            archive_truncates_torn_tail;
          Alcotest.test_case "iterates in append order" `Quick
            archive_iter_order;
          Alcotest.test_case "re-append no-op across restart" `Quick
            archive_reappend_noop_after_restart;
          Alcotest.test_case "real fs roundtrip + torn tail" `Quick
            archive_real_fs;
          Alcotest.test_case "on-disk format pinned" `Quick
            archive_format_pinned;
          Alcotest.test_case "grouped and ungrouped runs leave the same files"
            `Quick archive_group_commit_same_files;
          Alcotest.test_case "real fs rebuilt after close" `Quick
            archive_real_fs_rebuilt;
          Alcotest.test_case "real fs deferred fsync failure sticks" `Quick
            archive_real_deferred_fsync_errors;
          Alcotest.test_case "real fs low-water record waits for its fsync"
            `Quick archive_real_lwm_waits_for_fsync;
          Alcotest.test_case "real fs held write failure sticks" `Quick
            archive_real_held_write_errors;
          Alcotest.test_case "real fs fsync surfaces errors" `Quick
            archive_real_fsync_errors;
          Alcotest.test_case "logger serves from disk" `Quick
            logger_serves_from_archive;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "fail-over without replicas" `Quick
            source_failover_no_replicas;
          Alcotest.test_case "fail-over without statuses" `Quick
            source_failover_no_statuses;
          Alcotest.test_case "fail-over is single shot" `Quick
            source_failover_single_shot;
          Alcotest.test_case "reorder within NACK delay" `Quick
            receiver_reorder_within_nack_delay;
          Alcotest.test_case "duplicate repair ignored" `Quick
            receiver_duplicate_repair_ignored;
          Alcotest.test_case "epoch-overlap acking (2.3.1)" `Quick
            statack_previous_epoch_overlap;
          Alcotest.test_case "heartbeat field progression" `Quick
            source_heartbeat_fields;
          Alcotest.test_case "replica retry targets laggards" `Quick
            logger_replica_retry_laggards;
          Alcotest.test_case "replica retry cancelled when replicated" `Quick
            logger_replica_retry_cancelled_when_replicated;
          Alcotest.test_case "source-level stat-ack re-multicast" `Quick
            source_statack_remulticast_resends_data;
        ] );
      ( "pacer",
        [
          Alcotest.test_case "backs off and recovers" `Quick
            pacer_backs_off_and_recovers;
          Alcotest.test_case "ceiling and empty epochs" `Quick pacer_ceiling;
          Alcotest.test_case "stat-ack emits feedback" `Quick
            statack_emits_feedback;
        ] );
    ]
