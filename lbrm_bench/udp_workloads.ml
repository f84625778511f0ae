(* The three loopback workloads over the production UDP runtime.

   udp_stream and udp_lossy share one deployment: a source, a primary
   and a secondary logger (Keep_last 16384, no archive) and 8 receivers
   recovering through the secondary, then the primary.  udp_deposit is
   a source plus a 3-member replica set and no receivers, each member
   spilling a Keep_last 1024 store into a real-file Archive.

   Loopback UDP "multicast" is a unicast fan-out, so every data packet
   costs one datagram per group member; the kernel and Sockmsg side is a
   large share of these workloads' CPU (cpu.sys_s in a traced run). *)

module U = Lbrm_run.Udp_runtime
module Handlers = Lbrm_run.Handlers
module Archive = Lbrm.Archive
module Config = Lbrm.Config
module Log_store = Lbrm.Log_store
module Rng = Lbrm_util.Rng

let payload_size = 128
let receiver_count = 8

let base_cfg =
  {
    Config.default with
    stat_ack_enabled = false;
    h_min = 0.05;
    nack_delay = 0.01;
    nack_timeout = 0.15;
    deposit_timeout = 0.2;
  }

(* The runtime entry points the harness calls, under spans when traced.
   The untraced path calls straight through, allocating nothing. *)
let run_for rt seconds =
  if !Span.active then
    Span.span Span.sp_udp_run (fun () -> U.run_for rt ~seconds)
  else U.run_for rt ~seconds

let perform rt ~port actions =
  if !Span.active then
    Span.span Span.sp_udp_perform (fun () -> U.perform rt ~port actions)
  else U.perform rt ~port actions

let source_send source ~now payload =
  if !Span.active then
    Span.span Span.sp_source (fun () -> Lbrm.Source.send source ~now payload)
  else Lbrm.Source.send source ~now payload

let wrap ~traced id h =
  if traced then Span.wrap_handlers id ~on_message:Codec_est.note h else h

(* Runtime counters, Sockmsg transmit tiers and the agents' per-kind
   datagram counts, snapshot on both sides of a measured phase. *)
let udp_snapshot rt =
  let bag = Kit.Bag.create () in
  let st = U.stats rt in
  let gso, mmsg, sendto = Lbrm_run.Sockmsg.tx_tiers () in
  List.iter
    (fun (k, v) -> Kit.Bag.add bag k v)
    [
      ("rx_datagrams", st.U.rx_datagrams);
      ("rx_batches", st.U.rx_batches);
      ("tx_datagrams", st.U.tx_datagrams);
      ("tx_batches", st.U.tx_batches);
      ("sent", st.U.sent);
      ("pool_fallbacks", st.U.pool_fallbacks);
      ("dropped", st.U.dropped);
      ("tier.gso", gso);
      ("tier.mmsg", mmsg);
      ("tier.sendto", sendto);
    ];
  List.iter
    (fun (_, m) ->
      List.iter
        (fun (k, v) ->
          match v with
          | Lbrm_util.Metrics.V_int n -> Kit.Bag.add bag k n
          | Lbrm_util.Metrics.V_float _ | Lbrm_util.Metrics.V_summary _ -> ())
        (Lbrm_util.Metrics.snapshot m))
    (U.agent_metrics rt);
  bag

(* Runtime-level layer metrics from the counter deltas of a phase. *)
let udp_layers ~(m : Phase.measured) delta =
  let enc_s, dec_s = Codec_est.estimate delta in
  let get = Kit.Bag.get delta in
  let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let ratio a b = per (get a) (get b) in
  let tx = get "tier.gso" + get "tier.mmsg" + get "tier.sendto" in
  let share k = per (get k) tx in
  [
    ( "udp.runtime_self_s",
      m.Phase.cpu.Kit.user -. Layers.machine_self () -. enc_s -. dec_s
      -. Layers.harness_self ~wall:m.Phase.wall_ );
    ("udp.rx_per_batch", ratio "rx_datagrams" "rx_batches");
    ("udp.tx_per_batch", ratio "tx_datagrams" "tx_batches");
    ("udp.tx_datagrams", float_of_int (get "sent"));
    ("udp.pool_fallbacks", float_of_int (get "pool_fallbacks"));
    ("udp.injected_drops", float_of_int (get "dropped"));
    ("sockmsg.tx_gso_share", share "tier.gso");
    ("sockmsg.tx_sendto_share", share "tier.sendto");
    ("codec.encode_s", enc_s);
    ("codec.decode_s", dec_s);
  ]

(* Faults the transport must never show: failed encodes, truncated
   receives, malformed datagrams. *)
let transport_errors name rt =
  let st = U.stats rt in
  let malformed =
    List.fold_left
      (fun acc (k, v) ->
        match v with
        | Lbrm_util.Metrics.V_int n when k = "rx.malformed" -> acc + n
        | _ -> acc)
      0
      (Lbrm_util.Metrics.snapshot (U.runtime_metrics rt))
  in
  let bad = st.U.encode_failures + st.U.rx_truncated + malformed in
  ( bad,
    if bad = 0 then []
    else
      [
        Printf.sprintf
          "%s: %d encode failures, %d truncated, %d malformed datagrams" name
          st.U.encode_failures st.U.rx_truncated malformed;
      ] )

(* --- source -> loggers -> receivers ------------------------------------ *)

type fanout = {
  rt : U.t;
  source : Lbrm.Source.t;
  src_port : int;
  loggers : Lbrm.Logger.t list;
  receivers : Lbrm.Receiver.t array;
  seen : Kit.Seen.t array;
  payloads : Kit.Payloads.t;
  mutable sent : int;
  mutable delivered : int;
  mutable bad_payloads : int;
}

let fanout_cfg = { base_cfg with retention = Log_store.Keep_last 16384 }

(* [on_deliver ~seq ~recovered] sees every delivery after the harness
   has checked it. *)
let build_fanout ~traced ~seed ~loss ~on_deliver =
  let cfg = fanout_cfg in
  let ports = Kit.free_ports (3 + receiver_count) in
  let src = ports.(0) and primary = ports.(1) and secondary = ports.(2) in
  let rt = U.create ~loss ~seed () in
  let rng = Rng.create ~seed in
  let source = Lbrm.Source.create cfg ~self:src ~primary () in
  let pl =
    Lbrm.Logger.create cfg ~self:primary ~source:src ~rng:(Rng.split rng) ()
  in
  let sl =
    Lbrm.Logger.create cfg ~self:secondary ~source:src ~parent:primary
      ~rng:(Rng.split rng) ()
  in
  let receivers =
    Array.init receiver_count (fun i ->
        Lbrm.Receiver.create cfg ~self:ports.(3 + i) ~source:src
          ~loggers:[ secondary; primary ])
  in
  let d =
    {
      rt;
      source;
      src_port = src;
      loggers = [ pl; sl ];
      receivers;
      seen = Array.map (fun _ -> Kit.Seen.create ()) receivers;
      payloads = Kit.Payloads.create ~seed ~size:payload_size;
      sent = 0;
      delivered = 0;
      bad_payloads = 0;
    }
  in
  let add port id h = U.add_agent rt ~port (wrap ~traced id h) in
  add src Span.sp_source (Handlers.of_source source);
  add primary Span.sp_logger (Handlers.of_logger pl);
  add secondary Span.sp_logger (Handlers.of_logger sl);
  Array.iteri
    (fun i r ->
      let on_deliver ~now:_ ~seq ~payload ~recovered =
        d.delivered <- d.delivered + 1;
        Kit.Seen.note d.seen.(i) seq;
        if not (Kit.Payloads.check d.payloads ~last_sent:d.sent seq payload)
        then d.bad_payloads <- d.bad_payloads + 1;
        on_deliver ~seq ~recovered
      in
      U.add_agent rt ~port:ports.(3 + i)
        (wrap ~traced Span.sp_receiver (Handlers.of_receiver ~on_deliver r)))
    receivers;
  List.iter
    (fun port -> U.join rt ~group:cfg.Config.group ~port)
    (primary :: secondary :: List.init receiver_count (fun i -> ports.(3 + i)));
  U.perform rt ~port:src (Lbrm.Source.start source ~now:(U.now rt));
  Array.iteri
    (fun i r ->
      U.perform rt ~port:ports.(3 + i) (Lbrm.Receiver.start r ~now:(U.now rt)))
    receivers;
  d

let send_fanout d =
  d.sent <- d.sent + 1;
  let payload = Kit.Payloads.make d.payloads d.sent in
  perform d.rt ~port:d.src_port (source_send d.source ~now:(U.now d.rt) payload)

let complete d = Array.for_all (fun s -> s.Kit.Seen.count >= d.sent) d.seen

(* Run the loop until every receiver holds everything sent; false when
   deliveries stall for [stall] seconds first. *)
let await_all d ~stall =
  let last = ref d.delivered and since = ref (Kit.now ()) in
  let stalled = ref false in
  while (not !stalled) && not (complete d) do
    run_for d.rt 1e-4;
    if d.delivered <> !last then begin
      last := d.delivered;
      since := Kit.now ()
    end
    else if Kit.now () -. !since > stall then stalled := true
  done;
  not !stalled

let fanout_checks name d =
  let missing =
    Array.fold_left
      (fun acc s -> acc + max 0 (d.sent - s.Kit.Seen.count))
      0 d.seen
  in
  let dups = Array.fold_left (fun acc s -> acc + s.Kit.Seen.dups) 0 d.seen in
  let transport, transport_err = transport_errors name d.rt in
  let failed = missing + dups + d.bad_payloads + transport in
  ( d.sent * receiver_count,
    failed,
    transport_err
    @
    if missing + dups + d.bad_payloads > 0 then
      [
        Printf.sprintf "%s: %d missing, %d duplicate, %d corrupt deliveries"
          name missing dups d.bad_payloads;
      ]
    else [] )

let fanout_recovery d =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 d.receivers in
  let logs f = List.fold_left (fun acc l -> acc + f l) 0 d.loggers in
  ( sum Lbrm.Receiver.nacks_sent,
    sum Lbrm.Receiver.recovered,
    logs Lbrm.Logger.requests_served,
    sum Lbrm.Receiver.gave_up,
    logs Lbrm.Logger.remulticasts )

let recovery_layers (n0, r0, s0, g0, m0) (n1, r1, s1, g1, m1) =
  Layers.recovery ~nacks:(n1 - n0) ~recovered:(r1 - r0) ~served:(s1 - s0)
    ~gave_up:(g1 - g0) ~remcasts:(m1 - m0)

(* udp_stream: closed loop, no injected loss.  Send a burst of 64
   packets, run the loop until all 8 receivers hold all of them, repeat.
   Latency is per delivery, from the packet's hand-off to the source. *)
let burst = 64

let stream ~seed ~seconds ~traced ~tmp:_ =
  let lat = Kit.Lat.create () in
  let sent_at = Array.make 4096 0. in
  let on_deliver ~seq ~recovered:_ =
    Kit.Lat.add lat ((Kit.now () -. sent_at.(seq land 4095)) *. 1000.)
  in
  let setup = Kit.Setup.create () in
  let build () = build_fanout ~traced ~seed ~loss:0. ~on_deliver in
  let again () = U.close (Kit.Setup.time setup build).rt in
  let d = Kit.Setup.time setup build in
  let ok = ref true in
  let round () =
    for _ = 1 to burst do
      sent_at.((d.sent + 1) land 4095) <- Kit.now ();
      send_fanout d
    done;
    ok := await_all d ~stall:2.
  in
  for _ = 1 to 20 do
    if !ok then round ()
  done;
  Kit.Lat.clear lat;
  let rec0 = fanout_recovery d and c0 = udp_snapshot d.rt in
  let deliv0 = d.delivered and samples = ref 0 in
  let phase = Phase.start ~traced in
  let segments =
    let n = Kit.segment_count seconds in
    List.init n (fun _ ->
        let t0 = Kit.now () and d0 = d.delivered in
        while !ok && Kit.now () -. t0 < seconds /. float_of_int n do
          round ()
        done;
        samples := !samples + Kit.Lat.count lat;
        fst
          (Phase.segment phase ~again ~packets:(d.delivered - d0)
             ~elapsed:(Kit.now () -. t0) lat))
  in
  let m = Phase.finish phase in
  let c1 = udp_snapshot d.rt and rec1 = fanout_recovery d in
  let live_mb = Kit.live_heap_mb () in
  let delivered = d.delivered - deliv0 in
  let attempted, failed, errors = fanout_checks "udp_stream" d in
  U.close d.rt;
  {
    Kit.e2e =
      Phase.e2e m ~setup:(Kit.Setup.result setup) ~live_mb ~packets:delivered
        ~samples:!samples [ segments ];
    layers =
      Phase.layers m ~packets:delivered
        (udp_layers ~m (Kit.Bag.diff ~before:c0 ~after:c1)
        @ recovery_layers rec0 rec1);
    info =
      [
        Kit.metric "packets" "count" (float_of_int d.sent);
        Kit.metric "deliveries" "count" (float_of_int delivered);
      ];
    cost = Phase.cost m ~packets:delivered;
    attempted;
    failed;
    errors;
  }

(* udp_lossy: open loop at a fixed [rate] with 2% injected loss on every
   outgoing datagram, then a drain.  Every latency is timed from when
   the packet was due, so a generator stall counts against the packets
   behind it; the generator's own lateness is reported beside. *)
let rate = 5000.
let lossy_loss = 0.02

let lossy ~seed ~seconds ~traced ~tmp:_ =
  let repair = Kit.Lat.create () in
  let delivery = Kit.Lat.create () in
  let lag = Kit.Lat.create () in
  let due = Array.make 65536 0. in
  let on_deliver ~seq ~recovered =
    let l = (Kit.now () -. due.(seq land 65535)) *. 1000. in
    Kit.Lat.add delivery l;
    if recovered then Kit.Lat.add repair l
  in
  let setup = Kit.Setup.create () in
  let build () = build_fanout ~traced ~seed ~loss:lossy_loss ~on_deliver in
  let again () = U.close (Kit.Setup.time setup build).rt in
  let d = Kit.Setup.time setup build in
  (* Packet i is due [i / rate] seconds after [origin].  Send whatever is
     due, else run the loop until the next packet is.  Each send is
     followed by one pass of the loop, as in an application's own event
     loop: after a stall, the backlog goes out interleaved with receive
     processing instead of as one burst that would overflow the
     receivers' socket buffers.  The pause between segments moves
     [origin] on, so it leaves no backlog. *)
  let origin = ref (Kit.now ()) and next = ref 0 in
  let due_at i = !origin +. (float_of_int i /. rate) in
  let generate ~until =
    while due_at !next < until do
      let now = Kit.now () in
      if now >= due_at !next then begin
        Kit.Lat.add lag ((now -. due_at !next) *. 1000.);
        due.((d.sent + 1) land 65535) <- due_at !next;
        send_fanout d;
        incr next;
        run_for d.rt 1e-5
      end
      else run_for d.rt (due_at !next -. now)
    done
  in
  generate ~until:(!origin +. 0.5);
  Kit.Lat.clear repair;
  Kit.Lat.clear delivery;
  Kit.Lat.clear lag;
  let rec0 = fanout_recovery d and c0 = udp_snapshot d.rt in
  let deliv0 = d.delivered and samples = ref 0 in
  let phase = Phase.start ~traced in
  let segments =
    let n = Kit.segment_count ~length:2. seconds in
    let slice = seconds /. float_of_int n in
    List.init n (fun _ ->
        let t0 = Kit.now () and d0 = d.delivered in
        generate ~until:(due_at !next +. slice);
        samples := !samples + Kit.Lat.count repair;
        let s, paused =
          Phase.segment phase ~again ~packets:(d.delivered - d0)
            ~elapsed:(Kit.now () -. t0) repair
        in
        origin := !origin +. paused;
        s)
  in
  let m = Phase.finish phase in
  let c1 = udp_snapshot d.rt and rec1 = fanout_recovery d in
  let live_mb = Kit.live_heap_mb () in
  let delivered = d.delivered - deliv0 in
  run_for d.rt 1.;
  ignore (await_all d ~stall:3. : bool);
  let attempted, failed, errors = fanout_checks "udp_lossy" d in
  U.close d.rt;
  let lag_p99 = List.hd (Kit.Lat.percentiles lag [ 99. ]) in
  {
    Kit.e2e =
      Phase.e2e m ~setup:(Kit.Setup.result setup) ~live_mb ~packets:delivered
        ~samples:!samples [ segments ];
    layers =
      Phase.layers m ~packets:delivered
        ((("harness.gen_lag_p99_ms", lag_p99)
         :: udp_layers ~m (Kit.Bag.diff ~before:c0 ~after:c1))
        @ recovery_layers rec0 rec1);
    info =
      [
        Kit.metric "packets" "count" (float_of_int d.sent);
        Kit.metric "deliveries" "count" (float_of_int delivered);
        Kit.metric ~samples:(Kit.Lat.count delivery) "delivery_p50_ms" "ms"
          (List.hd (Kit.Lat.percentiles delivery [ 50. ]));
        Kit.metric ~samples:(Kit.Lat.count lag) "gen_lag_p99_ms" "ms" lag_p99;
      ];
    cost = Phase.cost m ~packets:delivered;
    attempted;
    failed;
    errors;
  }

(* --- source -> replica set ------------------------------------------- *)

type depot = {
  drt : U.t;
  dsource : Lbrm.Source.t;
  dsrc : int;
  members : Lbrm.Logger.t array;  (** head first *)
  archives : Archive.t array;
  dir : string;
  dpayloads : Kit.Payloads.t;
  sent_at : float array;  (** hand-off time, by seq modulo its length *)
  mutable dsent : int;
  mutable durable : int;
  mutable compacted : int;  (** last compaction floor *)
}

let window = 64

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* A fresh replica set under [strategy], its archives in a new
   directory, with the default archive settings (a low-water-mark record,
   and the fsync before it, every 32 packets).  Unless [on_group], no
   logger joins the data group: with no receivers the loggers take each
   packet only through the deposit path.  [on_durable latency_ms] fires
   for each sequence number the source's durability floor passes. *)
let build_depot ~traced ~seed ~dir ~on_group ~strategy ~sent_at ~on_durable =
  let cfg =
    {
      base_cfg with
      replication = strategy;
      retention = Log_store.Keep_last 1024;
    }
  in
  mkdir_p dir;
  let fs =
    if traced then Span.wrap_fs Lbrm_run.File_ops.real
    else Lbrm_run.File_ops.real
  in
  let archives =
    Array.init 3 (fun i ->
        match
          Archive.open_ ~segment_bytes:cfg.Config.archive_segment_bytes
            ~index_stride:cfg.Config.archive_index_stride
            ~lwm_stride:cfg.Config.archive_lwm_stride ~fs
            (Filename.concat dir (Printf.sprintf "logger-%d.log" i))
        with
        | Ok a -> a
        | Error e -> failwith ("udp_deposit: archive open: " ^ e))
  in
  let ports = Kit.free_ports 4 in
  let src = ports.(0) and head = ports.(1) in
  let replicas = [ ports.(2); ports.(3) ] in
  (* Ring order: head -> ports.(2) -> ports.(3) (tail). *)
  let succ i =
    match strategy with
    | Config.R_ring when i < 2 -> Some ports.(i + 2)
    | Config.R_ring | Config.R_primary | Config.R_quorum -> None
  in
  let rt = U.create ~seed () in
  let rng = Rng.create ~seed in
  let members =
    Array.init 3 (fun i ->
        if i = 0 then
          Lbrm.Logger.create cfg ~self:head ~source:src ~replicas ?succ:(succ 0)
            ~archive:archives.(0) ~rng:(Rng.split rng) ()
        else
          Lbrm.Logger.create cfg ~self:ports.(i + 1) ~source:src ~parent:head
            ?succ:(succ i) ~archive:archives.(i) ~rng:(Rng.split rng) ())
  in
  let source = Lbrm.Source.create cfg ~self:src ~primary:head ~replicas () in
  let d =
    {
      drt = rt;
      dsource = source;
      dsrc = src;
      members;
      archives;
      dir;
      dpayloads = Kit.Payloads.create ~seed ~size:payload_size;
      sent_at;
      dsent = 0;
      durable = 0;
      compacted = 0;
    }
  in
  let mask = Array.length sent_at - 1 in
  let observe (h : Handlers.t) =
    {
      h with
      on_message =
        (fun ~now ~src msg ->
          let actions = h.on_message ~now ~src msg in
          let floor = Lbrm.Source.durable source in
          if floor > d.durable then
            Span.span Span.sp_callback (fun () ->
                let t = Kit.now () in
                for s = d.durable + 1 to floor do
                  on_durable ((t -. sent_at.(s land mask)) *. 1000.)
                done;
                d.durable <- floor);
          actions);
    }
  in
  U.add_agent rt ~port:src
    (observe (wrap ~traced Span.sp_source (Handlers.of_source source)));
  Array.iteri
    (fun i l ->
      U.add_agent rt ~port:ports.(i + 1)
        (wrap ~traced Span.sp_logger (Handlers.of_logger l)))
    members;
  if on_group then
    for i = 1 to 3 do
      U.join rt ~group:cfg.Config.group ~port:ports.(i)
    done;
  U.perform rt ~port:src (Lbrm.Source.start source ~now:(U.now rt));
  d

let teardown_depot d =
  U.close d.drt;
  Array.iter
    (fun a ->
      let files = Archive.files a in
      Archive.close a;
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) files)
    d.archives;
  try Unix.rmdir d.dir with Unix.Unix_error _ -> ()

let send_depot d =
  d.dsent <- d.dsent + 1;
  d.sent_at.(d.dsent land (Array.length d.sent_at - 1)) <- Kit.now ();
  let payload = Kit.Payloads.make d.dpayloads d.dsent in
  perform d.drt ~port:d.dsrc (source_send d.dsource ~now:(U.now d.drt) payload)

(* Reclaim archive segments every 4096 durable packets, keeping the
   last [kept]: the retention a long-running logger would apply. *)
let kept = 8192

let compact d =
  let floor = d.durable - kept in
  if floor > d.compacted then begin
    let now = U.now d.drt in
    Span.span Span.sp_logger (fun () ->
        Array.iter
          (fun l -> ignore (Lbrm.Logger.compact_archive l ~now ~floor : int))
          d.members);
    d.compacted <- floor
  end

let maybe_compact d = if d.durable - d.compacted >= 4096 + kept then compact d

(* Closed loop for [seconds], keeping [window] packets sent but not yet
   durable; stops early if the durable floor stalls for a second.
   Returns the packets made durable and the time taken. *)
let run_segment d ~seconds =
  let t0 = Kit.now () and d0 = d.durable in
  let last = ref d.durable and since = ref t0 and stalled = ref false in
  while (not !stalled) && Kit.now () -. t0 < seconds do
    while d.dsent - d.durable < window do
      send_depot d
    done;
    run_for d.drt 1e-4;
    maybe_compact d;
    if d.durable > !last then begin
      last := d.durable;
      since := Kit.now ()
    end
    else if Kit.now () -. !since > 1. then stalled := true
  done;
  (d.durable - d0, Kit.now () -. t0)

(* After a segment every member must come to hold every packet sent, and
   a sample of the packets must read back, from memory or disk, exactly
   as sent.  Returns (failed, errors). *)
let depot_checks name d =
  let settled () =
    d.durable >= d.dsent
    && Array.for_all (fun l -> Lbrm.Logger.durable_floor l >= d.dsent) d.members
  in
  let t0 = Kit.now () in
  while (not (settled ())) && Kit.now () -. t0 < 2. do
    U.run_for d.drt ~seconds:1e-3
  done;
  let never_durable = d.dsent - d.durable in
  let behind =
    Array.fold_left
      (fun acc l -> acc + max 0 (d.dsent - Lbrm.Logger.durable_floor l))
      0 d.members
  in
  let corrupt = ref 0 in
  let step = max 1 (d.dsent / 64) in
  Array.iteri
    (fun i l ->
      let s = ref (d.compacted + 1) in
      while !s <= d.dsent do
        let held =
          match Log_store.get (Lbrm.Logger.store l) ~now:0. !s with
          | Some e -> Some e.Log_store.payload
          | None -> Option.map snd (Archive.find d.archives.(i) !s)
        in
        (match held with
        | Some p when String.equal p (Kit.Payloads.generate d.dpayloads !s) ->
            ()
        | _ -> incr corrupt);
        s := !s + step
      done)
    d.members;
  let transport, transport_err = transport_errors name d.drt in
  let failed =
    never_durable + !corrupt + (if behind > 0 then 1 else 0) + transport
  in
  ( failed,
    transport_err
    @
    if failed > transport then
      [
        Printf.sprintf
          "%s: %d packets never durable, members %d seqs behind, %d samples \
           unreadable or corrupt"
          name never_durable behind !corrupt;
      ]
    else [] )

(* The replica set placed as Scenario.standard places it, every member
   on the data group, sent one window of packets: how many become
   durable before the floor stalls for a quarter second.  Under
   R_primary this reads 0 today (README "Findings"): the head logs the
   multicast Data before the deposit arrives and then never forwards it
   to the replicas.  The measured slices keep the loggers off the group
   so that all three strategies have a rate to measure; this probe shows
   the defect, and its fix, every run. *)
let on_group_durable ~seed ~tmp strategy =
  let dir =
    Filename.concat tmp
      (Printf.sprintf "%d-on-group-%s" (Unix.getpid ())
         (Config.replication_label strategy))
  in
  let d =
    build_depot ~traced:false ~seed ~dir ~on_group:true ~strategy
      ~sent_at:(Array.make 1024 0.) ~on_durable:ignore
  in
  for _ = 1 to window do
    send_depot d
  done;
  let last = ref 0 and since = ref (Kit.now ()) in
  while d.durable < window && Kit.now () -. !since < 0.25 do
    U.run_for d.drt ~seconds:1e-3;
    if d.durable > !last then begin
      last := d.durable;
      since := Kit.now ()
    end
  done;
  teardown_depot d;
  d.durable

(* udp_deposit: closed loop of deposits, [rounds] rounds each running
   the three replication strategies in turn, so drift over the run hits
   all of them alike.  Every slice builds a fresh replica set (one
   set-up sample) and lasts [seconds / (rounds * 3)].  Each strategy's
   slices form one group of segments (Phase.e2e), so every end-to-end
   rate and latency is the mean over the three strategies. *)
let rounds = 5
let strategies = [ Config.R_primary; Config.R_ring; Config.R_quorum ]

let deposit ~seed ~seconds ~traced ~tmp =
  let lat = Kit.Lat.create () in
  let sent_at = Array.make 1024 0. in
  let slice = seconds /. float_of_int (rounds * List.length strategies) in
  let setup = Kit.Setup.create () in
  let segments = ref [] and samples = ref 0 in
  let made_total = ref 0 and attempted = ref 0 and failed = ref 0 in
  let errors = ref [] and delta = Kit.Bag.create () in
  let archive_counts = Kit.Bag.create () in
  let phase = ref None and live_mb = ref 0. in
  for round = 1 to rounds do
    List.iter
      (fun strategy ->
        let label = Config.replication_label strategy in
        let dir =
          Filename.concat tmp
            (Printf.sprintf "%d-%d-%s" (Unix.getpid ()) round label)
        in
        let d =
          Kit.Setup.time setup (fun () ->
              build_depot ~traced ~seed ~dir ~on_group:false ~strategy ~sent_at
                ~on_durable:(Kit.Lat.add lat))
        in
        let before = udp_snapshot d.drt in
        (match !phase with
        | None -> phase := Some (Phase.start ~traced)
        | Some p -> Phase.resume p);
        Kit.Lat.clear lat;
        let made, elapsed = run_segment d ~seconds:slice in
        Option.iter Phase.pause !phase;
        (* Compact to the retention floor first, so the heap measured
           holds the same [kept] packets however fast the slice ran. *)
        compact d;
        live_mb := Float.max !live_mb (Kit.live_heap_mb ());
        samples := !samples + Kit.Lat.count lat;
        segments :=
          (label, Kit.segment ~packets:made ~elapsed lat) :: !segments;
        Kit.Bag.merge_into delta
          (Kit.Bag.diff ~before ~after:(udp_snapshot d.drt));
        made_total := !made_total + made;
        Array.iter
          (fun a ->
            Kit.Bag.add archive_counts "archive.rotations"
              (Archive.rotations a);
            Kit.Bag.add archive_counts "archive.compactions"
              (Archive.compactions a))
          d.archives;
        let f, e = depot_checks ("udp_deposit/" ^ label) d in
        attempted := !attempted + d.dsent;
        failed := !failed + f;
        errors := !errors @ e;
        teardown_depot d;
        (* One more set-up sample per slice (Kit.Setup). *)
        teardown_depot
          (Kit.Setup.time setup (fun () ->
               build_depot ~traced ~seed ~dir ~on_group:false ~strategy
                 ~sent_at ~on_durable:ignore)))
      strategies
  done;
  (* Ring and quorum must make the whole window durable on the group
     too; the primary's share is only reported. *)
  let on_group =
    List.map (fun s -> (s, on_group_durable ~seed ~tmp s)) strategies
  in
  List.iter
    (fun (s, made) ->
      if s <> Config.R_primary then begin
        attempted := !attempted + window;
        if made < window then begin
          failed := !failed + window - made;
          errors :=
            !errors
            @ [
                Printf.sprintf
                  "udp_deposit/%s on the data group: %d of %d packets durable"
                  (Config.replication_label s) made window;
              ]
        end
      end)
    on_group;
  let primary_on_group =
    float_of_int (List.assoc Config.R_primary on_group) /. float_of_int window
  in
  (try Unix.rmdir tmp with Unix.Unix_error _ -> ());
  let m = match !phase with Some p -> Phase.result p | None -> assert false in
  let by_strategy =
    List.map
      (fun s ->
        let label = Config.replication_label s in
        List.filter_map
          (fun (l, seg) -> if l = label then Some seg else None)
          !segments)
      strategies
  in
  let strategy_pps =
    List.map2
      (fun s segs ->
        ( Printf.sprintf "deposit.%s_pps" (Config.replication_label s),
          Kit.percentile_of (List.map (fun seg -> seg.Kit.rate) segs) 75. ))
      strategies by_strategy
  in
  {
    Kit.e2e =
      Phase.e2e m ~setup:(Kit.Setup.result setup) ~live_mb:!live_mb
        ~packets:!made_total ~samples:!samples by_strategy;
    layers =
      Phase.layers m ~packets:!made_total
        ((("deposit.primary_on_group_durable_frac", primary_on_group)
         :: strategy_pps)
        @ udp_layers ~m delta
        @ Hashtbl.fold
            (fun k v acc -> (k, float_of_int v) :: acc)
            archive_counts []);
    info =
      List.map
        (fun (name, v) -> Kit.metric ~samples:rounds name "1/s" v)
        strategy_pps
      @ [
          Kit.metric "durable_packets" "count" (float_of_int !made_total);
          Kit.metric ~samples:window "primary_on_group_durable_frac" "ratio"
            primary_on_group;
        ];
    cost = Phase.cost m ~packets:!made_total;
    attempted = !attempted;
    failed = !failed;
    errors = !errors;
  }
