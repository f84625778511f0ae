(* sim_recovery: the paper's Figure-1 deployment in the simulator —
   50 sites x 20 receivers behind T1 tails with 3% Bernoulli tail loss,
   a secondary logger per site plus the primary, 128-byte packets every
   100 ms of virtual time.  Engine, Net, Sim_runtime dispatch and the
   Receiver/Logger recovery ladder do all the work; Codec, Sockmsg and
   Archive do none, so this is the control for transport and disk
   changes.

   The harness advances the simulation one send interval at a time until
   the measured wall-clock budget is spent; its latency is the wall time
   one interval takes to simulate (1000 deliveries plus recovery).  The
   run then drains for 60 s of virtual time and every receiver must hold
   every packet exactly once.  The virtual loss-to-repair latency the
   receivers report is deterministic per seed, so it is printed beside
   the end-to-end metrics rather than among them.
   Loggers keep packets for [retention] virtual seconds so the heap
   stays bounded however long the run. *)

module Builders = Lbrm_sim.Builders
module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Topo = Lbrm_sim.Topo
module Loss = Lbrm_sim.Loss
module Message = Lbrm_wire.Message
module Rng = Lbrm_util.Rng
module Sim_runtime = Lbrm_run.Sim_runtime
module Handlers = Lbrm_run.Handlers
module Scenario = Lbrm_run.Scenario

let interval = 0.1
let payload_size = 128
let tail_loss = 0.03
let retention = 30.

let cfg =
  { Lbrm.Config.default with retention = Lbrm.Log_store.Keep_for retention }

type deployment = {
  rt : Sim_runtime.t;
  engine : Engine.t;
  net : Message.t Net.t;
  source : Lbrm.Source.t;
  source_node : int;
  loggers : Lbrm.Logger.t list;
  receivers : Lbrm.Receiver.t array;
  seen : Kit.Seen.t array;
  payloads : Kit.Payloads.t;
  mutable sent : int;
  mutable delivered : int;
  mutable bad_payloads : int;
}

(* Construction mirrors Scenario.standard step for step — the same
   random-stream splits, agent installation, group joins and start
   order — so that, for one seed, its protocol counters match
   Scenario.standard's exactly ([cross_check] verifies this). *)
let build ~traced ~seed ~sites ~receivers_per_site ~on_repair =
  let reserved = 3 in
  let wan =
    Builders.dis_wan ~sites ~hosts_per_site:(reserved + receivers_per_site) ()
  in
  Array.iter
    (fun site ->
      Topo.set_link_loss site.Builders.tail_down (Loss.bernoulli tail_loss))
    wan.sites;
  let engine = Engine.create ~seed () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of:Message.wire_size () in
  let rt = Sim_runtime.create ~net ~trace:(Lbrm_sim.Trace.create ()) () in
  let rng = Rng.split (Engine.rng engine) in
  let source_node = Builders.host wan ~site:0 1 in
  let primary_node = Builders.host wan ~site:0 2 in
  let initial_estimate = float_of_int (sites * receivers_per_site) in
  let source =
    Lbrm.Source.create cfg ~self:source_node ~primary:primary_node ~replicas:[]
      ~initial_estimate ()
  in
  let primary =
    Lbrm.Logger.create cfg ~self:primary_node ~source:source_node ~replicas:[]
      ~rng:(Rng.split rng) ()
  in
  let secondaries =
    Array.map
      (fun site ->
        let node = site.Builders.hosts.(0) in
        ( Lbrm.Logger.create cfg ~self:node ~source:source_node
            ~parent:primary_node ~rng:(Rng.split rng) (),
          node ))
      wan.sites
  in
  let receivers =
    Array.concat
      (Array.to_list
         (Array.map
            (fun site ->
              Array.init receivers_per_site (fun j ->
                  let node = site.Builders.hosts.(reserved + j) in
                  ( Lbrm.Receiver.create cfg ~self:node ~source:source_node
                      ~loggers:[ site.Builders.hosts.(0); primary_node ],
                    node )))
            wan.sites))
  in
  let wrap id h = if traced then Span.wrap_handlers id h else h in
  let d =
    {
      rt;
      engine;
      net;
      source;
      source_node;
      loggers = primary :: Array.to_list (Array.map fst secondaries);
      receivers = Array.map fst receivers;
      seen = Array.map (fun _ -> Kit.Seen.create ()) receivers;
      payloads = Kit.Payloads.create ~seed ~size:payload_size;
      sent = 0;
      delivered = 0;
      bad_payloads = 0;
    }
  in
  Sim_runtime.add_agent rt ~node:source_node
    (wrap Span.sp_source (Handlers.of_source source));
  Sim_runtime.add_agent rt ~node:primary_node
    (wrap Span.sp_logger (Handlers.of_logger primary));
  Array.iter
    (fun (l, node) ->
      Sim_runtime.add_agent rt ~node
        (wrap Span.sp_logger (Handlers.of_logger l)))
    secondaries;
  Array.iteri
    (fun i (r, node) ->
      let seen = d.seen.(i) in
      let on_deliver ~now:_ ~seq ~payload ~recovered:_ =
        d.delivered <- d.delivered + 1;
        Kit.Seen.note seen seq;
        if not (Kit.Payloads.check d.payloads ~last_sent:d.sent seq payload)
        then d.bad_payloads <- d.bad_payloads + 1
      in
      let on_notice ~now:_ = function
        | Lbrm.Io.N_recovered { latency; _ } -> on_repair latency
        | _ -> ()
      in
      Sim_runtime.add_agent rt ~node
        (wrap Span.sp_receiver (Handlers.of_receiver ~on_deliver ~on_notice r)))
    receivers;
  let join_data node = Sim_runtime.join rt ~group:cfg.group ~node in
  let join_disc node = Sim_runtime.join rt ~group:cfg.discovery_group ~node in
  join_data primary_node;
  join_disc primary_node;
  Array.iter
    (fun (_, node) ->
      join_data node;
      join_disc node)
    secondaries;
  Array.iter (fun (_, node) -> join_data node) receivers;
  let now = Engine.now engine in
  Sim_runtime.perform rt ~node:source_node (Lbrm.Source.start source ~now);
  Array.iter
    (fun (r, node) -> Sim_runtime.perform rt ~node (Lbrm.Receiver.start r ~now))
    receivers;
  d

let send d =
  d.sent <- d.sent + 1;
  let payload = Kit.Payloads.make d.payloads d.sent in
  let now = Sim_runtime.now d.rt in
  let actions =
    Span.span Span.sp_source (fun () -> Lbrm.Source.send d.source ~now payload)
  in
  Sim_runtime.perform d.rt ~node:d.source_node actions

(* Schedule the next send at the absolute virtual time
   Scenario.drive_periodic would use, then run the engine up to it. *)
let advance d =
  let time = interval *. float_of_int (d.sent + 1) in
  ignore
    (Engine.at_kind d.engine ~kind:Engine.kind_app ~time (fun () -> send d)
      : Engine.timer);
  Span.span Span.sp_sim_run (fun () -> Sim_runtime.run ~until:time d.rt)

let drain d =
  Sim_runtime.run ~until:((interval *. float_of_int d.sent) +. 60.) d.rt

let sum_receivers d f = Array.fold_left (fun acc r -> acc + f r) 0 d.receivers

let requests_served d =
  List.fold_left (fun acc l -> acc + Lbrm.Logger.requests_served l) 0 d.loggers

(* The hand-built deployment against Scenario.standard, same seed and
   configuration, on a small instance driven like drive_periodic (every
   send scheduled up front): recovery counters must agree.  The
   measured run schedules one send at a time, which may order events
   due at the same instant differently, so only construction is
   compared. *)
let cross_check ~seed =
  let sites = 8 and receivers_per_site = 5 and packets = 40 in
  let d =
    build ~traced:false ~seed ~sites ~receivers_per_site ~on_repair:ignore
  in
  for i = 1 to packets do
    ignore
      (Engine.schedule_kind d.engine ~kind:Engine.kind_app
         ~delay:(interval *. float_of_int i)
         (fun () -> send d)
        : Engine.timer)
  done;
  let until = (interval *. float_of_int packets) +. 60. in
  Sim_runtime.run ~until d.rt;
  let s =
    Scenario.standard ~cfg ~seed
      ~initial_estimate:(float_of_int (sites * receivers_per_site))
      ~tail_loss:(fun _ -> Loss.bernoulli tail_loss)
      ~sites ~receivers_per_site ()
  in
  Scenario.drive_periodic s ~interval ~count:packets ~payload_size ();
  Scenario.run s ~until;
  let sr f =
    Array.fold_left (fun acc (r, _) -> acc + f r) 0 s.Scenario.receivers
  in
  let s_served =
    Array.fold_left
      (fun acc (l, _) -> acc + Lbrm.Logger.requests_served l)
      (Lbrm.Logger.requests_served s.Scenario.primary)
      s.Scenario.secondaries
  in
  let ours =
    ( sum_receivers d Lbrm.Receiver.nacks_sent,
      sum_receivers d Lbrm.Receiver.recovered,
      requests_served d,
      sum_receivers d Lbrm.Receiver.delivered )
  in
  let theirs =
    ( sr Lbrm.Receiver.nacks_sent,
      sr Lbrm.Receiver.recovered,
      s_served,
      sr Lbrm.Receiver.delivered )
  in
  if ours = theirs then []
  else
    let show (a, b, c, e) =
      Printf.sprintf "nacks %d recovered %d served %d delivered %d" a b c e
    in
    [
      Printf.sprintf
        "sim_recovery: deployment diverges from Scenario.standard (%s vs %s)"
        (show ours) (show theirs);
    ]

(* Cumulative counters, read on both sides of the measured phase. *)
type counts = {
  packet_events : int;
  timer_events : int;
  app_events : int;
  tree_builds : int;
  cache_hits : int;
  nacks : int;
  recovered : int;
  gave_up : int;
  served : int;
  remcasts : int;
  delivered : int;
}

let counts d =
  let fired kind = Engine.kind_fired d.engine ~kind in
  {
    packet_events = fired Engine.kind_packet;
    timer_events = fired Engine.kind_timer;
    app_events = fired Engine.kind_app;
    tree_builds = Net.mcast_tree_builds d.net;
    cache_hits = Net.mcast_cache_hits d.net;
    nacks = sum_receivers d Lbrm.Receiver.nacks_sent;
    recovered = sum_receivers d Lbrm.Receiver.recovered;
    gave_up = sum_receivers d Lbrm.Receiver.gave_up;
    served = requests_served d;
    remcasts =
      List.fold_left
        (fun acc l -> acc + Lbrm.Logger.remulticasts l)
        0 d.loggers;
    delivered = d.delivered;
  }

let run ~seed ~seconds ~traced =
  let cross = cross_check ~seed in
  let repair = Kit.Lat.create () in
  let on_repair latency = Kit.Lat.add repair (latency *. 1000.) in
  let setup = Kit.Setup.create () in
  let build () =
    build ~traced ~seed ~sites:50 ~receivers_per_site:20 ~on_repair
  in
  let again () = ignore (Kit.Setup.time setup build : deployment) in
  let d = Kit.Setup.time setup build in
  (* Warm-up: the first packets build the multicast trees and settle the
     statistical-ack epoch. *)
  for _ = 1 to 20 do
    advance d
  done;
  let transits = ref 0 in
  if traced then Net.on_link_transit d.net (fun _ _ -> incr transits);
  let step = Kit.Lat.create () in
  let c0 = counts d in
  let phase = Phase.start ~traced in
  let segments =
    let n = Kit.segment_count seconds in
    List.init n (fun _ ->
        let t0 = Kit.now () and deliv0 = d.delivered in
        while Kit.now () -. t0 < seconds /. float_of_int n do
          let s = Kit.now () in
          advance d;
          Kit.Lat.add step ((Kit.now () -. s) *. 1000.)
        done;
        fst
          (Phase.segment phase ~again ~packets:(d.delivered - deliv0)
             ~elapsed:(Kit.now () -. t0) step))
  in
  let m = Phase.finish phase in
  let c1 = counts d in
  let transits = !transits in
  let live_mb = Kit.live_heap_mb () in
  drain d;
  (* Every receiver holds every packet exactly once, with the payload
     the source sent. *)
  let missing =
    Array.fold_left (fun acc s -> acc + (d.sent - s.Kit.Seen.count)) 0 d.seen
  in
  let dups = Array.fold_left (fun acc s -> acc + s.Kit.Seen.dups) 0 d.seen in
  let failed = missing + dups + d.bad_payloads in
  let errors =
    cross
    @
    if failed > 0 then
      [
        Printf.sprintf
          "sim_recovery: %d missing, %d duplicate, %d corrupt deliveries"
          missing dups d.bad_payloads;
      ]
    else []
  in
  let delivered = c1.delivered - c0.delivered in
  let nacks = c1.nacks - c0.nacks in
  let builds = c1.tree_builds - c0.tree_builds in
  let hits = c1.cache_hits - c0.cache_hits in
  let vrepair = Kit.Lat.percentiles repair [ 50.; 99. ] in
  {
    Kit.e2e =
      Phase.e2e m ~setup:(Kit.Setup.result setup) ~live_mb ~packets:delivered
        ~samples:(c1.app_events - c0.app_events) [ segments ];
    layers =
      Phase.layers m ~packets:delivered
        ([
           ("sim.run_self_s", Span.self.(Span.sp_sim_run));
           ( "engine.events.packet",
             float_of_int (c1.packet_events - c0.packet_events) );
           ( "engine.events.timer",
             float_of_int (c1.timer_events - c0.timer_events) );
           ("net.link_transits", float_of_int transits);
           ("net.mcast_tree_builds", float_of_int builds);
           ( "net.mcast_cache_hit_rate",
             float_of_int hits /. float_of_int (max 1 (hits + builds)) );
         ]
        @ Layers.recovery ~nacks ~recovered:(c1.recovered - c0.recovered)
            ~served:(c1.served - c0.served) ~gave_up:(c1.gave_up - c0.gave_up)
            ~remcasts:(c1.remcasts - c0.remcasts));
    info =
      [
        Kit.metric "packets" "count" (float_of_int d.sent);
        Kit.metric "deliveries" "count" (float_of_int delivered);
        Kit.metric ~samples:(Kit.Lat.count repair) "vrepair_p50_ms" "ms"
          (List.nth vrepair 0);
        Kit.metric ~samples:(Kit.Lat.count repair) "vrepair_p99_ms" "ms"
          (List.nth vrepair 1);
      ];
    cost = Phase.cost m ~packets:delivered;
    attempted = d.sent * Array.length d.receivers;
    failed;
    errors;
  }
