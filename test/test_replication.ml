(* The pluggable logger-replication strategies: deposit routing, ack
   policy and fail-over under Primary, Ring and Quorum; the exponential
   deposit-retry backoff; the window-of-loss guarantees each strategy
   makes at promotion; the archive disk tier's graceful degradation;
   and the full chaos suite raced under all three strategies. *)

module Message = Lbrm_wire.Message
module Io = Lbrm.Io
module Config = Lbrm.Config
module Source = List_view.Source
module Logger = List_view.Logger
module Log_store = Lbrm.Log_store
module T = Lbrm.Trace
module Chaos = Lbrm_run.Chaos
module Scenario = Lbrm_run.Scenario
module Rng = Lbrm_util.Rng

let p = Lbrm_wire.Payload.of_string
let pstr = Lbrm_wire.Payload.to_string
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf eps = Alcotest.check (Alcotest.float eps)
let checks = Alcotest.check Alcotest.string
let rng () = Rng.create ~seed:7

let plain = { Config.default with stat_ack_enabled = false }
let ring_cfg = { plain with replication = Config.R_ring }
let quorum_cfg = { plain with replication = Config.R_quorum }

(* --- action inspection helpers --- *)

let unicasts_to addr actions =
  List.filter_map
    (function
      | Io.Send (Io.To_addr a, msg) when a = addr -> Some msg | _ -> None)
    actions

let all_sends actions =
  List.filter_map
    (function Io.Send (_, msg) -> Some msg | _ -> None)
    actions

let timers_set actions =
  List.filter_map
    (function Io.Set_timer (k, d) -> Some (k, d) | _ -> None)
    actions

let notices actions =
  List.filter_map (function Io.Notify n -> Some n | _ -> None) actions

let deposit_delay_of seq actions =
  List.find_map
    (function
      | Io.K_deposit s, d when s = seq -> Some d | _ -> None)
    (timers_set actions)

(* ---- satellite: exponential deposit-retry backoff -------------------- *)

let backoff_schedule () =
  (* Defaults: 0.5 s doubling, capped at 4 s. *)
  let d k = Config.deposit_delay Config.default ~attempt:k in
  List.iteri
    (fun k want -> checkf 1e-9 (Printf.sprintf "attempt %d" k) want (d k))
    [ 0.5; 1.0; 2.0; 4.0; 4.0; 4.0 ];
  (* Custom knobs. *)
  let cfg =
    {
      Config.default with
      deposit_timeout = 0.2;
      deposit_backoff = 3.;
      deposit_timeout_max = 1.0;
    }
  in
  List.iteri
    (fun k want ->
      checkf 1e-9
        (Printf.sprintf "custom attempt %d" k)
        want
        (Config.deposit_delay cfg ~attempt:k))
    [ 0.2; 0.6; 1.0; 1.0 ]

let backoff_validation () =
  checkb "backoff < 1 rejected" true
    (Result.is_error (Config.validate { plain with deposit_backoff = 0.5 }));
  checkb "cap below timeout rejected" true
    (Result.is_error
       (Config.validate { plain with deposit_timeout_max = 0.1 }));
  checkb "non-positive timeout rejected" true
    (Result.is_error (Config.validate { plain with deposit_timeout = 0. }))

(* The source's retry clocks follow the schedule: each retransmission
   re-arms with the next backed-off delay. *)
let source_retry_schedule_pinned () =
  let s = Source.create plain ~self:1 ~primary:2 () in
  let a0 = Source.send s ~now:0. "a" in
  checkf 1e-9 "initial arm" 0.5 (Option.get (deposit_delay_of 1 a0));
  let now = ref 0.5 in
  List.iter
    (fun want ->
      let a = Source.handle_timer s ~now:!now (Io.K_deposit 1) in
      checkb "re-deposited" true
        (List.exists
           (function Message.Log_deposit { seq = 1; _ } -> true | _ -> false)
           (unicasts_to 2 a));
      checkf 1e-9 "re-armed with backoff" want
        (Option.get (deposit_delay_of 1 a));
      now := !now +. want)
    [ 1.0; 2.0; 4.0; 4.0; 4.0 ];
  (* Retry budget spent: the next expiry turns into suspicion, not a
     sixth retransmission. *)
  let a = Source.handle_timer s ~now:!now (Io.K_deposit 1) in
  checkb "suspected instead of resending" true
    (List.exists
       (function Io.N_primary_suspected -> true | _ -> false)
       (notices a))

(* ---- ring strategy ---------------------------------------------------- *)

let ring_deposit_routes_to_head () =
  let s = Source.create ring_cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ] () in
  let a = Source.send s ~now:0. "a" in
  (match unicasts_to 2 a with
  | [ Message.Ring_forward { seq = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected a Ring_forward to the head");
  checkb "no deposits to downstream members" true
    (List.for_all
       (function Message.Ring_forward _ -> false | _ -> true)
       (unicasts_to 3 a @ unicasts_to 4 a));
  checkb "retry armed" true (deposit_delay_of 1 a <> None)

let ring_chain_forwards_and_tail_acks () =
  let head = Logger.create ring_cfg ~self:2 ~source:1 ~succ:3 ~rng:(rng ()) () in
  let mid =
    Logger.create ring_cfg ~self:3 ~source:1 ~parent:2 ~succ:4 ~rng:(rng ()) ()
  in
  let tail =
    Logger.create ring_cfg ~self:4 ~source:1 ~parent:2 ~rng:(rng ()) ()
  in
  let fwd = Message.Ring_forward { seq = 1; epoch = 0; payload = p "a" } in
  let a = Logger.handle_message head ~now:0. ~src:1 fwd in
  (match unicasts_to 3 a with
  | [ Message.Ring_forward { seq = 1; _ } ] -> ()
  | _ -> Alcotest.fail "head must forward to its successor");
  let a = Logger.handle_message mid ~now:0.01 ~src:2 fwd in
  (match unicasts_to 4 a with
  | [ Message.Ring_forward { seq = 1; _ } ] -> ()
  | _ -> Alcotest.fail "mid must forward to the tail");
  let a = Logger.handle_message tail ~now:0.02 ~src:3 fwd in
  (match unicasts_to 1 a with
  | [ Message.Ring_ack { seq = 1 } ] -> ()
  | _ -> Alcotest.fail "tail must ack the source with its floor");
  List.iter
    (fun l -> checkb "member logged it" true (Log_store.mem (Logger.store l) 1))
    [ head; mid; tail ];
  checkb "tail is a tail" true (Logger.successor tail = None)

let ring_ack_advances_floor () =
  let s = Source.create ring_cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ] () in
  ignore (Source.send s ~now:0. "a");
  ignore (Source.send s ~now:0.1 "b");
  let a = Source.handle_message s ~now:0.2 ~src:4 (Message.Ring_ack { seq = 2 }) in
  checkb "both retry clocks cancelled" true
    (List.mem (Io.Cancel_timer (Io.K_deposit 1)) a
    && List.mem (Io.Cancel_timer (Io.K_deposit 2)) a);
  checki "durable = tail floor" 2 (Source.durable s);
  checki "released" 2 (Source.released s);
  checki "nothing retained" 0 (Source.retained s)

let ring_failover_rebuilds_ring () =
  let cfg = { ring_cfg with deposit_retry_limit = 0 } in
  let s = Source.create cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ] () in
  ignore (Source.send s ~now:0. "a");
  let a = Source.handle_timer s ~now:0.5 (Io.K_deposit 1) in
  checkb "whole ring queried (head included)" true
    (unicasts_to 2 a <> [] && unicasts_to 3 a <> [] && unicasts_to 4 a <> []);
  ignore
    (Source.handle_message s ~now:0.6 ~src:3 (Message.Replica_status { seq = 5 }));
  ignore
    (Source.handle_message s ~now:0.6 ~src:4 (Message.Replica_status { seq = 3 }));
  let a = Source.handle_timer s ~now:1.5 (Io.K_failover 1) in
  (* Survivors re-chained most-up-to-date first: 3 (floor 5) leads,
     4 (floor 3) is the new tail.  The new head also receives the
     re-deposit of every retained packet, so look at Ring_sets only. *)
  let ring_sets m =
    List.filter
      (function Message.Ring_set _ -> true | _ -> false)
      (unicasts_to m a)
  in
  (match ring_sets 3 with
  | [ Message.Ring_set { succ = Some 4; head = 3 } ] -> ()
  | _ -> Alcotest.fail "expected Ring_set making 3 the head");
  (match ring_sets 4 with
  | [ Message.Ring_set { succ = None; head = 3 } ] -> ()
  | _ -> Alcotest.fail "expected Ring_set making 4 the tail");
  checki "head switched" 3 (Source.primary s);
  checkb "promotion notified" true
    (List.exists
       (function Io.N_new_primary 3 -> true | _ -> false)
       (notices a))

let ring_set_rehomes_member () =
  let l = Logger.create ring_cfg ~self:4 ~source:1 ~parent:2 ~rng:(rng ()) () in
  ignore
    (Logger.handle_message l ~now:0. ~src:1
       (Message.Ring_set { succ = None; head = 3 }));
  checkb "tail now" true (Logger.successor l = None);
  checkb "not the head" false (Logger.is_primary l);
  ignore
    (Logger.handle_message l ~now:0.1 ~src:1
       (Message.Ring_set { succ = Some 3; head = 4 }));
  checkb "promoted to head" true (Logger.is_primary l);
  checkb "successor adopted" true (Logger.successor l = Some 3)

(* ---- quorum strategy -------------------------------------------------- *)

let quorum_deposit_fans_to_members () =
  let s = Source.create quorum_cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ] () in
  let a = Source.send s ~now:0. "a" in
  List.iter
    (fun m ->
      match unicasts_to m a with
      | [ Message.Log_deposit { seq = 1; _ } ] -> ()
      | _ -> Alcotest.fail (Printf.sprintf "member %d missed the deposit" m))
    [ 2; 3; 4 ];
  checkb "retry armed" true (deposit_delay_of 1 a <> None)

let quorum_durable_at_majority () =
  let s = Source.create quorum_cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ] () in
  ignore (Source.send s ~now:0. "a");
  ignore (Source.handle_message s ~now:0.1 ~src:2 (Message.Quorum_ack { seq = 1 }));
  checki "one floor is not a majority" 0 (Source.durable s);
  checki "nothing released" 0 (Source.released s);
  let a =
    Source.handle_message s ~now:0.2 ~src:3 (Message.Quorum_ack { seq = 1 })
  in
  checki "two of three floors: durable" 1 (Source.durable s);
  checki "released at the quorum floor" 1 (Source.released s);
  (* The retry clock must outlive durability: it is also the dead-member
     detector, and stops only once every member holds the seq. *)
  checkb "retry clock still live after majority" true
    (not (List.mem (Io.Cancel_timer (Io.K_deposit 1)) a));
  let a =
    Source.handle_message s ~now:0.3 ~src:4 (Message.Quorum_ack { seq = 1 })
  in
  checkb "slowest member done: clock stops" true
    (List.mem (Io.Cancel_timer (Io.K_deposit 1)) a)

let quorum_logger_acks_own_floor () =
  let l =
    Logger.create quorum_cfg ~self:3 ~source:1 ~parent:2 ~rng:(rng ()) ()
  in
  let dep seq =
    Message.Log_deposit { seq; epoch = 0; payload = p (string_of_int seq) }
  in
  let a = Logger.handle_message l ~now:0. ~src:1 (dep 1) in
  (match unicasts_to 1 a with
  | [ Message.Quorum_ack { seq = 1 } ] -> ()
  | _ -> Alcotest.fail "expected a floor ack");
  (* A lost deposit multicast: the floor must not jump the gap, and the
     member chases it through its parent. *)
  let a = Logger.handle_message l ~now:0.1 ~src:1 (dep 3) in
  (match unicasts_to 1 a with
  | [ Message.Quorum_ack { seq = 1 } ] -> ()
  | _ -> Alcotest.fail "floor must stay below the gap");
  checkb "gap chase armed" true
    (List.exists
       (function Io.K_uplink_nack 2, _ -> true | _ -> false)
       (timers_set a))

let quorum_promotes_highest_floor () =
  let cfg = { quorum_cfg with deposit_retry_limit = 0 } in
  let s = Source.create cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ] () in
  ignore (Source.send s ~now:0. "a");
  ignore (Source.handle_message s ~now:0.1 ~src:4 (Message.Quorum_ack { seq = 1 }));
  (* Retry budget exhausted with the serving member's floor still at 0:
     no query round — the ack floors already elect member 4. *)
  let a = Source.handle_timer s ~now:0.5 (Io.K_deposit 1) in
  checkb "promote sent to highest floor" true
    (List.exists
       (function Message.Promote _ -> true | _ -> false)
       (unicasts_to 4 a));
  checki "primary switched without a query round" 4 (Source.primary s);
  checkb "suspected and promoted notified" true
    (List.exists
       (function Io.N_primary_suspected -> true | _ -> false)
       (notices a)
    && List.exists
         (function Io.N_new_primary 4 -> true | _ -> false)
         (notices a));
  (* Single shot: a second expiry must not promote again. *)
  let a2 = Source.handle_timer s ~now:1.0 (Io.K_deposit 1) in
  checkb "no second promotion" true
    (List.for_all
       (function Message.Promote _ -> false | _ -> true)
       (all_sends a2))

(* ---- satellite: window of loss at promotion --------------------------- *)

(* Quorum with a surviving majority: everything the source ever released
   was durable on the survivors, so promotion re-deposits nothing — the
   window of loss is zero. *)
let window_of_loss_quorum_zero () =
  let cfg = { quorum_cfg with deposit_retry_limit = 1 } in
  let s = Source.create cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ] () in
  for i = 1 to 10 do
    ignore (Source.send s ~now:(float_of_int i *. 0.01) (string_of_int i))
  done;
  (* Both replicas hold everything; the primary crashed with its floor
     at zero. *)
  ignore (Source.handle_message s ~now:0.2 ~src:3 (Message.Quorum_ack { seq = 10 }));
  ignore (Source.handle_message s ~now:0.2 ~src:4 (Message.Quorum_ack { seq = 10 }));
  checki "majority made the whole stream durable" 10 (Source.durable s);
  checki "all payloads released" 0 (Source.retained s);
  (* The released payload is gone, but the suspicion clock keeps
     running against the silent primary until it exhausts. *)
  ignore (Source.handle_timer s ~now:0.5 (Io.K_deposit 10));
  let a = Source.handle_timer s ~now:1.0 (Io.K_deposit 10) in
  checki "promoted a survivor" 3 (Source.primary s);
  checkb "window of loss is zero: nothing re-deposited" true
    (List.for_all
       (function Message.Log_deposit _ -> false | _ -> true)
       (all_sends a))

(* Ring: the head dies with the pipeline full.  Packets past the tail's
   cumulative ack must be re-deposited — the window is exactly the
   un-acked pipeline depth, never more. *)
let window_of_loss_ring_pipeline () =
  let cfg = { ring_cfg with deposit_retry_limit = 0 } in
  let s = Source.create cfg ~self:1 ~primary:2 ~replicas:[ 3; 4 ] () in
  for i = 1 to 10 do
    ignore (Source.send s ~now:(float_of_int i *. 0.01) (string_of_int i))
  done;
  ignore (Source.handle_message s ~now:0.15 ~src:4 (Message.Ring_ack { seq = 6 }));
  checki "tail acked 6" 6 (Source.durable s);
  checki "pipeline depth retained" 4 (Source.retained s);
  ignore (Source.handle_timer s ~now:0.5 (Io.K_deposit 7));
  ignore
    (Source.handle_message s ~now:0.6 ~src:3 (Message.Replica_status { seq = 8 }));
  ignore
    (Source.handle_message s ~now:0.6 ~src:4 (Message.Replica_status { seq = 6 }));
  let a = Source.handle_timer s ~now:1.5 (Io.K_failover 1) in
  checki "most up-to-date survivor heads the new ring" 3 (Source.primary s);
  let redeposited =
    List.filter_map
      (function Message.Ring_forward { seq; _ } -> Some seq | _ -> None)
      (unicasts_to 3 a)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int))
    "window = the un-acked pipeline, re-deposited through the new head"
    [ 7; 8; 9; 10 ] redeposited

(* Primary/secondary: k deposits un-acked by any replica at the crash
   are exactly what promotion re-deposits. *)
let window_of_loss_primary_k_unacked () =
  let cfg = { plain with deposit_retry_limit = 0 } in
  let s = Source.create cfg ~self:1 ~primary:2 ~replicas:[ 3 ] () in
  for i = 1 to 10 do
    ignore (Source.send s ~now:(float_of_int i *. 0.01) (string_of_int i))
  done;
  ignore
    (Source.handle_message s ~now:0.15 ~src:2
       (Message.Log_ack { primary_seq = 10; replica_seq = 6 }));
  checki "replica floor 6" 6 (Source.durable s);
  ignore (Source.send s ~now:1.0 "11");
  ignore (Source.handle_timer s ~now:1.5 (Io.K_deposit 11));
  ignore
    (Source.handle_message s ~now:1.6 ~src:3 (Message.Replica_status { seq = 6 }));
  let a = Source.handle_timer s ~now:2.5 (Io.K_failover 1) in
  checki "replica promoted" 3 (Source.primary s);
  let redeposited =
    List.filter_map
      (function Message.Log_deposit { seq; _ } -> Some seq | _ -> None)
      (unicasts_to 3 a)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int))
    "window = packets above the replica floor" [ 7; 8; 9; 10; 11 ] redeposited

(* ---- primary strategy: replica fan-out -------------------------------- *)

(* The head logger also listens on the data group, so it usually logs
   the multicast before the unicast deposit arrives.  The deposit must
   still reach every replica, or no replica ever acks and the source's
   durable floor never moves. *)
let primary_replicates_seq_logged_off_the_group () =
  let l =
    Logger.create plain ~self:2 ~source:1 ~replicas:[ 3; 4 ] ~rng:(rng ()) ()
  in
  ignore
    (Logger.handle_message l ~now:0. ~src:1
       (Message.Data { seq = 1; epoch = 0; payload = p "a" }));
  let a =
    Logger.handle_message l ~now:0.01 ~src:1
      (Message.Log_deposit { seq = 1; epoch = 0; payload = p "a" })
  in
  List.iter
    (fun r ->
      match unicasts_to r a with
      | [ Message.Replica_update { seq = 1; payload; _ } ] ->
          checks "payload" "a" (pstr payload)
      | _ -> Alcotest.fail (Printf.sprintf "replica %d missed the update" r))
    [ 3; 4 ];
  checkb "replica retry armed" true
    (List.mem_assoc (Io.K_replica_retry 1) (timers_set a))

(* Replica-retry cancels go out highest seq first, whether the ack's
   newly covered span is walked or the armed set is scanned. *)
let replica_retry_cancels_descend () =
  let l =
    Logger.create plain ~self:2 ~source:1 ~replicas:[ 3 ] ~rng:(rng ()) ()
  in
  for seq = 1 to 12 do
    ignore
      (Logger.handle_message l ~now:0. ~src:1
         (Message.Log_deposit { seq; epoch = 0; payload = p "x" }))
  done;
  let cancels ack =
    Logger.handle_message l ~now:0.1 ~src:3 (Message.Replica_ack { seq = ack })
    |> List.filter_map (function
         | Io.Cancel_timer (Io.K_replica_retry s) -> Some s
         | _ -> None)
  in
  Alcotest.(check (list int)) "span of 3, 12 armed" [ 3; 2; 1 ] (cancels 3);
  Alcotest.(check (list int))
    "span of 97, 9 armed"
    [ 12; 11; 10; 9; 8; 7; 6; 5; 4 ]
    (cancels 100)

(* End to end, every strategy makes the whole stream durable. *)
let durable_reaches_last_seq () =
  List.iter
    (fun replication ->
      let d =
        Scenario.standard
          ~cfg:{ Config.default with replication }
          ~replica_count:2 ~sites:4 ~receivers_per_site:2 ~seed:1 ()
      in
      Scenario.drive_periodic d ~interval:0.02 ~count:100 ();
      Scenario.run d ~until:30.;
      checki
        (Config.replication_label replication ^ ": durable")
        100 (Source.durable d.Scenario.source))
    [ Config.R_primary; Config.R_ring; Config.R_quorum ]

(* ---- one ingest path: every logging entry behaves alike --------------- *)

(* A replica update is a logging path like any other: it answers the
   requesters that were waiting on the seq from upstream. *)
let replica_update_serves_waiters () =
  let l = Logger.create plain ~self:3 ~source:1 ~parent:2 ~rng:(rng ()) () in
  let a =
    Logger.handle_message l ~now:0. ~src:10 (Message.Nack { seqs = [ 5 ] })
  in
  checkb "chased upstream" true (unicasts_to 2 a <> []);
  let a =
    Logger.handle_message l ~now:0.1 ~src:2
      (Message.Replica_update { seq = 5; epoch = 0; payload = p "e" })
  in
  match unicasts_to 10 a with
  | [ Message.Retrans { seq = 5; payload; _ } ] ->
      checks "payload" "e" (pstr payload)
  | _ -> Alcotest.fail "the waiting requester was not served"

let log_writes (c : T.Collector.t) =
  List.filter_map
    (fun (r : T.record) ->
      match r.T.ev with
      | T.Log_write { seq; recovered } -> Some (r.T.node, seq, recovered)
      | _ -> None)
    (T.Collector.records c)

(* Every fresh log is traced, whichever message brought it. *)
let fresh_deposit_and_update_trace_log_write () =
  let c = T.Collector.create () in
  let sink = T.Collector.sink c in
  let primary =
    Logger.create plain ~self:2 ~source:1 ~replicas:[ 3 ] ~rng:(rng ()) ~sink
      ()
  in
  let replica =
    Logger.create plain ~self:3 ~source:1 ~parent:2 ~rng:(rng ()) ~sink ()
  in
  let dep = Message.Log_deposit { seq = 1; epoch = 0; payload = p "a" } in
  ignore (Logger.handle_message primary ~now:0. ~src:1 dep);
  ignore
    (Logger.handle_message replica ~now:0.01 ~src:2
       (Message.Replica_update { seq = 1; epoch = 0; payload = p "a" }));
  (* A duplicate deposit is not a fresh log. *)
  ignore (Logger.handle_message primary ~now:0.02 ~src:1 dep);
  Alcotest.(check (list (triple int int bool)))
    "one Log_write per fresh log" [ (2, 1, false); (3, 1, false) ]
    (log_writes c)

(* ---- satellite: archive degradation on Fs_error ----------------------- *)

let archive_degrades_gracefully () =
  (* A disk tier that fills up after three appends: opening a fresh
     archive writes one manifest record, then two data records fit. *)
  let fs = Lbrm.Archive.in_memory () in
  let budget = ref 3 in
  let failing =
    {
      fs with
      Lbrm.Archive.append =
        (fun path data ->
          if !budget <= 0 then raise (Lbrm.Archive.Fs_error "disk full");
          decr budget;
          fs.Lbrm.Archive.append path data);
    }
  in
  let archive =
    Result.get_ok (Lbrm.Archive.open_ ~fs:failing "archive.log")
  in
  let collector = T.Collector.create () in
  let cfg = { plain with retention = Log_store.Keep_last 3 } in
  let l =
    Logger.create cfg ~self:5 ~source:1 ~parent:2 ~archive ~rng:(rng ())
      ~sink:(T.Collector.sink collector) ()
  in
  checkb "tier attached" true (Logger.archive_enabled l);
  for seq = 1 to 10 do
    ignore
      (Logger.handle_message l ~now:0. ~src:1
         (Message.Data
            { seq; epoch = 0; payload = p (Printf.sprintf "p%d" seq) }))
  done;
  (* Evictions 1 and 2 archived; eviction 3 hit the full disk. *)
  checki "first failure disables the tier" 1 (Logger.archive_write_errors l);
  checkb "tier detached" false (Logger.archive_enabled l);
  checki "disk kept what it could" 2 (Lbrm.Archive.count archive);
  checkb "degradation traced" true
    (List.exists
       (fun (r : T.record) ->
         match r.T.ev with T.Archive_degraded { seq = 3 } -> true | _ -> false)
       (T.Collector.records collector));
  (* Memory still serves. *)
  let a =
    Logger.handle_message l ~now:1. ~src:10 (Message.Nack { seqs = [ 9 ] })
  in
  (match unicasts_to 10 a with
  | [ Message.Retrans { seq = 9; payload = pl; _ } ] when pstr pl = "p9" -> ()
  | _ -> Alcotest.fail "expected a repair from memory");
  (* And archived history too: the tier is read-degraded, not wiped. *)
  let a =
    Logger.handle_message l ~now:1. ~src:10 (Message.Nack { seqs = [ 1 ] })
  in
  match unicasts_to 10 a with
  | [ Message.Retrans { seq = 1; _ } ] -> ()
  | _ -> ( (* evicted un-archived packets chase the parent instead *)
      match unicasts_to 2 a with
      | [ Message.Nack _ ] -> ()
      | _ -> Alcotest.fail "expected a repair or an uplink chase")

(* A failure that surfaces on a disk-tier lookup or compaction (a
   group commit's deferred fsync reports at the next call on its path)
   degrades the tier the way a failed spill does, instead of escaping
   the logger. *)
let archive_degrades_on_read_and_compact () =
  let broken = ref false in
  let logger () =
    let fs = Lbrm.Archive.in_memory () in
    let failing =
      {
        fs with
        Lbrm.Archive.read_at =
          (fun path ~pos ~len ->
            if !broken then raise (Lbrm.Archive.Fs_error "deferred fsync");
            fs.Lbrm.Archive.read_at path ~pos ~len);
        remove =
          (fun path ->
            if !broken then raise (Lbrm.Archive.Fs_error "deferred fsync");
            fs.Lbrm.Archive.remove path);
      }
    in
    let archive =
      Result.get_ok
        (Lbrm.Archive.open_ ~segment_bytes:64 ~fs:failing "archive.log")
    in
    let collector = T.Collector.create () in
    let cfg = { plain with retention = Log_store.Keep_last 3 } in
    let l =
      Logger.create cfg ~self:5 ~source:1 ~parent:2 ~archive ~rng:(rng ())
        ~sink:(T.Collector.sink collector) ()
    in
    broken := false;
    for seq = 1 to 10 do
      ignore
        (Logger.handle_message l ~now:0. ~src:1
           (Message.Data { seq; epoch = 0; payload = p "payload" }))
    done;
    broken := true;
    (l, collector)
  in
  let degraded_at seq (l, collector) =
    checki "counted" 1 (Logger.archive_write_errors l);
    checkb "tier detached" false (Logger.archive_enabled l);
    checkb "degradation traced" true
      (List.exists
         (fun (r : T.record) -> r.T.ev = T.Archive_degraded { seq })
         (T.Collector.records collector))
  in
  let ((l, _) as lookup) = logger () in
  ignore (Logger.handle_message l ~now:1. ~src:10 (Message.Nack { seqs = [ 2 ] }));
  degraded_at 2 lookup;
  let ((l, _) as compaction) = logger () in
  checki "nothing reclaimed" 0 (Logger.compact_archive l ~now:1. ~floor:6);
  degraded_at 6 compaction

(* ---- satellite: end-to-end memory → disk fall-through ------------------ *)

(* The paper's 50-site deployment under tail loss, with in-memory stores
   so small ([Keep_last 2]) that almost every repair request outlives
   its packet's stay in RAM: recovery must fall through to the disk
   tier, close every gap, and do so under each replication strategy. *)
let tier_fallthrough_end_to_end () =
  List.iter
    (fun replication ->
      let label = Config.replication_label replication in
      let cfg =
        {
          Config.default with
          replication;
          retention = Log_store.Keep_last 2;
          archive_segment_bytes = 1024;
        }
      in
      let d =
        Scenario.standard ~cfg ~seed:23 ~replica_count:2
          ~initial_estimate:100.
          ~tail_loss:(fun _ -> Lbrm_sim.Loss.bernoulli 0.05)
          ~archive:true ~sites:50 ~receivers_per_site:2 ()
      in
      Scenario.drive_periodic d ~interval:0.02 ~count:60 ();
      Scenario.run d ~until:30.;
      Scenario.record_archive_stats d;
      checki (label ^ ": every gap closed") 0 (Scenario.total_missing d);
      checkb (label ^ ": retransmissions served from disk") true
        (Lbrm_util.Metrics.count (Scenario.metrics d) "archive.read" > 0))
    [ Config.R_primary; Config.R_ring; Config.R_quorum ]

(* ---- the chaos suite raced under every strategy ----------------------- *)

let chaos_all_strategies () =
  List.iter
    (fun replication ->
      let label = Config.replication_label replication in
      List.iter
        (fun (o : Chaos.outcome) ->
          checkb
            (Printf.sprintf "%s gap/dup-free (%s)" o.Chaos.name
               (String.concat "; " o.Chaos.violations))
            true (Chaos.passed o))
        (Chaos.run_scripted ~replication ());
      let o = Chaos.primary_crash ~replication () in
      checki (label ^ ": exactly one fail-over") 1 o.Chaos.failovers)
    [ Config.R_primary; Config.R_ring; Config.R_quorum ]

let chaos_deterministic_per_seed () =
  List.iter
    (fun replication ->
      let d1 = (Chaos.primary_crash ~replication ()).Chaos.digest in
      let d2 = (Chaos.primary_crash ~replication ()).Chaos.digest in
      checks
        (Config.replication_label replication ^ " digest stable")
        d1 d2)
    [ Config.R_ring; Config.R_quorum ]

(* ---- suite ------------------------------------------------------------ *)

let () =
  Alcotest.run "replication"
    [
      ( "backoff",
        [
          Alcotest.test_case "schedule pinned" `Quick backoff_schedule;
          Alcotest.test_case "knobs validated" `Quick backoff_validation;
          Alcotest.test_case "source retries follow schedule" `Quick
            source_retry_schedule_pinned;
        ] );
      ( "ring",
        [
          Alcotest.test_case "deposit routes to head" `Quick
            ring_deposit_routes_to_head;
          Alcotest.test_case "chain forwards, tail acks" `Quick
            ring_chain_forwards_and_tail_acks;
          Alcotest.test_case "tail ack advances floor" `Quick
            ring_ack_advances_floor;
          Alcotest.test_case "fail-over rebuilds the ring" `Quick
            ring_failover_rebuilds_ring;
          Alcotest.test_case "Ring_set re-homes a member" `Quick
            ring_set_rehomes_member;
        ] );
      ( "quorum",
        [
          Alcotest.test_case "deposit fans to all members" `Quick
            quorum_deposit_fans_to_members;
          Alcotest.test_case "durable at majority" `Quick
            quorum_durable_at_majority;
          Alcotest.test_case "logger acks own floor" `Quick
            quorum_logger_acks_own_floor;
          Alcotest.test_case "promotes highest floor, single shot" `Quick
            quorum_promotes_highest_floor;
        ] );
      ( "primary",
        [
          Alcotest.test_case "replica-retry cancels descend" `Quick
            replica_retry_cancels_descend;
          Alcotest.test_case "replicates a seq logged off the group" `Quick
            primary_replicates_seq_logged_off_the_group;
          Alcotest.test_case "every strategy makes the stream durable" `Quick
            durable_reaches_last_seq;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "replica update serves waiters" `Quick
            replica_update_serves_waiters;
          Alcotest.test_case "fresh deposit and update trace Log_write" `Quick
            fresh_deposit_and_update_trace_log_write;
        ] );
      ( "window-of-loss",
        [
          Alcotest.test_case "quorum with majority: zero" `Quick
            window_of_loss_quorum_zero;
          Alcotest.test_case "ring: bounded by pipeline depth" `Quick
            window_of_loss_ring_pipeline;
          Alcotest.test_case "primary: the k un-acked deposits" `Quick
            window_of_loss_primary_k_unacked;
        ] );
      ( "archive",
        [
          Alcotest.test_case "degrades gracefully on Fs_error" `Quick
            archive_degrades_gracefully;
          Alcotest.test_case "degrades on a failed lookup or compaction"
            `Quick archive_degrades_on_read_and_compact;
          Alcotest.test_case "memory → disk fall-through, end to end" `Slow
            tier_fallthrough_end_to_end;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "all strategies pass the scripted suite" `Slow
            chaos_all_strategies;
          Alcotest.test_case "deterministic per seed" `Slow
            chaos_deterministic_per_seed;
        ] );
    ]
