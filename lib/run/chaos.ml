module Metrics = Lbrm_util.Metrics
module Ev = Lbrm.Trace
module Fault = Lbrm_sim.Fault
module Topo = Lbrm_sim.Topo
module Builders = Lbrm_sim.Builders
module Rng = Lbrm_util.Rng
module Sample = Lbrm_util.Stats.Sample


type outcome = {
  name : string;
  violations : string list;
  failovers : int;
  rediscoveries : int;
  delivered : int;
  durable : int;
  metrics : Metrics.t;
  events : Ev.record list;
  digest : string;
}

let passed o = o.violations = []

(* Canonical rendering of every counter and every sample (name-sorted,
   values in insertion order, full float precision): two runs of the
   same seeded scenario must produce byte-identical metric streams, and
   this digest is how the soak asserts it. *)
let digest_of_metrics metrics =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "c %s %d\n" k v))
    (Metrics.counters metrics);
  List.iter
    (fun (k, s) ->
      Buffer.add_string buf (Printf.sprintf "s %s" k);
      Array.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf " %.17g" v))
        (Sample.values s);
      Buffer.add_char buf '\n')
    (Metrics.samples metrics);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Per-(receiver, seq) delivery counts.  A restarted receiver has no
   dedup state and may legitimately re-deliver packets its previous
   incarnation already handed up, so the fault hooks clear a node's
   counts when it restarts; within one incarnation any second delivery
   of a seq is a protocol bug. *)
type tracker = { counts : (int * int, int) Hashtbl.t; mutable dups : int }

let tracker () = { counts = Hashtbl.create 4096; dups = 0 }

let track tk node seq =
  let key = (node, seq) in
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt tk.counts key) in
  Hashtbl.replace tk.counts key n;
  if n > 1 then tk.dups <- tk.dups + 1

let forget_node tk node =
  let stale =
    Hashtbl.fold
      (fun ((n, _) as key) _ acc -> if n = node then key :: acc else acc)
      tk.counts []
  in
  List.iter (Hashtbl.remove tk.counts) stale

(* ---- invariants ------------------------------------------------------ *)

let completeness_violations (d : Scenario.deployment) =
  let last = Lbrm.Source.last_seq d.source in
  let vs = ref [] in
  Array.iter
    (fun (_, node) ->
      let seen = Hashtbl.find d.delivered node in
      let missing = ref 0 in
      for s = 1 to last do
        if not (Hashtbl.mem seen s) then incr missing
      done;
      if !missing > 0 then
        vs :=
          Printf.sprintf "node %d: %d of %d packets never delivered" node
            !missing last
          :: !vs)
    d.receivers;
  List.rev !vs

(* Liveness of the durable floor: once the run has quiesced with a
   majority of the replica set up, every packet the source sent must be
   durable under whatever strategy is active. *)
let durable_violations (d : Scenario.deployment) =
  let members = d.primary_node :: List.map snd d.replicas in
  let up =
    List.length
      (List.filter (Lbrm_sim.Topo.node_up d.wan.Builders.topo) members)
  in
  let last = Lbrm.Source.last_seq d.source in
  let durable = Lbrm.Source.durable d.source in
  if 2 * up > List.length members && durable <> last then
    [
      Printf.sprintf "durable floor %d below last seq %d with %d of %d \
                      loggers up" durable last up (List.length members);
    ]
  else []

let common_violations d tk =
  completeness_violations d
  @ durable_violations d
  @ (if tk.dups > 0 then
       [ Printf.sprintf "%d duplicate deliveries" tk.dups ]
     else [])
  @
  let gave_up = Metrics.count (Scenario.metrics d) "loss.gave_up" in
  if gave_up > 0 then [ Printf.sprintf "%d recoveries abandoned" gave_up ]
  else []

let rediscovery_count (d : Scenario.deployment) =
  Array.fold_left
    (fun acc (r, _) -> acc + Lbrm.Receiver.rediscoveries r)
    0 d.receivers

(* Scenario names carry the non-default strategy as a suffix so matrix
   runs ("primary_crash_ring", …) stay distinguishable in reports. *)
let strategy_name base = function
  | Lbrm.Config.R_primary -> base
  | r -> base ^ "_" ^ Lbrm.Config.replication_label r

let finish base (d : Scenario.deployment) tk collector extra =
  let name = strategy_name base d.cfg.Lbrm.Config.replication in
  let metrics = Scenario.metrics d in
  let events = Ev.Collector.records collector in
  let violations = common_violations d tk @ extra in
  {
    name;
    violations;
    failovers = Lbrm.Source.failovers d.Scenario.source;
    rediscoveries = rediscovery_count d;
    delivered = Metrics.count metrics "app.delivered";
    durable = Lbrm.Source.durable d.Scenario.source;
    metrics;
    events;
    digest = digest_of_metrics metrics;
  }

(* Short heartbeats and generous retry budgets: gaps must surface and
   repairs must survive multi-second outages inside a ~30 s horizon.
   The detection clocks are provisioned in heartbeat periods — a
   deposit goes unanswered after ~1.2 heartbeats, a retransmission
   request after ~2.4 — so crash-detection latency in the scenarios
   scales linearly with [h_min] (the EXPERIMENTS.md table).  The
   deposit backoff is capped at two heartbeats so that suspicion still
   fires well inside each scenario's crash window; the default 4 s cap
   would stretch the retry schedule past the scripted restarts. *)
let chaos_cfg ?(h_min = 0.25) ?(replication = Lbrm.Config.R_primary) () =
  {
    Lbrm.Config.default with
    h_min;
    h_max = 2.0;
    max_it = 4.0;
    replication;
    deposit_timeout = 1.2 *. h_min;
    deposit_backoff = 2.0;
    deposit_timeout_max = 2.4 *. h_min;
    nack_timeout = 2.4 *. h_min;
    nack_retry_limit = 8;
  }

(* Every scenario's deployment: a standard one whose machines share a
   collector's sink, with every delivery counted by a duplicate
   tracker. *)
let deploy ~cfg ~seed ?replica_count ~initial_estimate ?tail_loss ?archive
    ~sites ~receivers_per_site () =
  let tk = tracker () in
  let collector = Ev.Collector.create () in
  let d =
    Scenario.standard ~cfg ~seed ?replica_count ~initial_estimate ?tail_loss
      ~on_deliver:(fun node ~now:_ ~seq ~payload:_ ~recovered:_ ->
        track tk node seq)
      ~sink:(Ev.Collector.sink collector) ?archive ~sites ~receivers_per_site
      ()
  in
  (d, tk, collector)

(* The exactly-one-Promote invariant and the fail-over latency come
   straight off the typed trace: one F_promoted record, stamped at the
   instant the source switched primaries.  Returns the promotion
   records and the violations. *)
let promoted_once d collector ~crash_at =
  let promotions = Ev.Query.promotions (Ev.Collector.records collector) in
  (match promotions with
  | { Ev.at; _ } :: _ ->
      Metrics.observe
        (Metrics.sample (Scenario.metrics d) "failover_latency")
        (at -. crash_at)
  | [] -> ());
  ( promotions,
    match promotions with
    | [ _ ] -> []
    | [] -> [ "no Promote in the trace within the horizon" ]
    | ps ->
        [
          Printf.sprintf "expected exactly 1 Promote in the trace, saw %d"
            (List.length ps);
        ] )

(* ---- scripted scenarios ---------------------------------------------- *)

(* Primary logger dies mid-stream with deposits outstanding: the source
   must suspect it, poll the replicas (Replica_query / Replica_status),
   promote the most up-to-date one and re-deposit what it retains — all
   over the simulated WAN.  The crashed node later restarts as a replica
   of the new primary. *)
let primary_crash ?(seed = 11) ?h_min ?replication () =
  let crash_at = 3.0 and restart_at = 10.0 and horizon = 30.0 in
  let d, tk, collector =
    deploy ~cfg:(chaos_cfg ?h_min ?replication ()) ~seed ~replica_count:2
      ~initial_estimate:12. ~sites:4 ~receivers_per_site:3 ()
  in
  Scenario.drive_periodic d ~interval:0.05 ~count:100 ();
  Scenario.schedule_faults d
    ~on_restart:(fun node -> forget_node tk node)
    (Fault.outage ~at:crash_at ~downtime:(restart_at -. crash_at)
       d.Scenario.primary_node);
  Scenario.run d ~until:horizon;
  let promotions, extra = promoted_once d collector ~crash_at in
  (* The promotion also carries the window of loss: the count of
     retained packets the source re-deposits with the new leader. *)
  (match promotions with
  | { Ev.ev = Ev.Failover_step (Ev.F_promoted { redeposits; _ }); _ } :: _ ->
      Metrics.observe
        (Metrics.sample (Scenario.metrics d) "window_of_loss")
        (float_of_int redeposits)
  | _ -> ());
  finish "primary_crash" d tk collector extra

(* Primary crash with the disk tier attached and a store small enough
   that most of the history has already spilled to segments before the
   crash.  Exercises the full restart contract of the tier: the archive
   (a persistent per-node fs) survives the crash, the rebuilt logger
   reopens it, seeds its durability floor from the recovered low-water
   mark, and keeps old packets servable from disk — while fail-over
   still promotes exactly one replica, each of which runs the same
   spilling configuration.

   A concurrent site partition (cut during the whole stream, healed
   after the new primary is stable) forces the deep catch-up that makes
   the tier observable: the cut site returns needing most of the
   stream, long evicted from every 8-entry store, so its repairs must
   fall through memory to the archive. *)
let primary_crash_spill ?(seed = 11) ?h_min ?replication () =
  let crash_at = 3.0 and restart_at = 10.0 and horizon = 40.0 in
  let cut_site = 2 and cut_t0 = 2.1 and cut_t1 = 12.1 in
  (* Keep_last 8 forces eviction after a fraction of the 100-packet
     stream; 2 KiB segments force rotations, so the reopen path walks a
     multi-segment manifest rather than one active file. *)
  let cfg =
    {
      (chaos_cfg ?h_min ?replication ()) with
      Lbrm.Config.retention = Lbrm.Log_store.Keep_last 8;
      archive_segment_bytes = 2048;
    }
  in
  let d, tk, collector =
    deploy ~cfg ~seed ~replica_count:2 ~initial_estimate:12. ~archive:true
      ~sites:4 ~receivers_per_site:3 ()
  in
  Scenario.drive_periodic d ~interval:0.05 ~count:100 ();
  Scenario.schedule_faults d
    ~on_restart:(fun node -> forget_node tk node)
    (Fault.outage ~at:crash_at ~downtime:(restart_at -. crash_at)
       d.Scenario.primary_node);
  Scenario.schedule_faults d
    (Fault.partition_site d.Scenario.wan ~site:cut_site ~t0:cut_t0 ~t1:cut_t1);
  Scenario.run d ~until:horizon;
  Scenario.record_archive_stats d;
  let _, promote_extra = promoted_once d collector ~crash_at in
  (* The restarted ex-primary reopened the surviving archive.  Its
     durability floor must be seeded from the recovered low-water mark
     and must never overstate: every sequence number at or below the
     floor has to be servable from memory or disk right now. *)
  let spill_extra =
    match Hashtbl.find_opt d.Scenario.archives d.Scenario.primary_node with
    | None -> [ "restarted primary has no archive handle" ]
    | Some a ->
        let lw = Lbrm.Archive.low_water a in
        let floor = Lbrm.Logger.durable_floor d.Scenario.primary in
        let store = Lbrm.Logger.store d.Scenario.primary in
        let unheld = ref 0 in
        for s = 1 to floor do
          if not (Lbrm.Log_store.mem store s || Lbrm.Archive.mem a s) then
            incr unheld
        done;
        (if lw <= 0 then
           [ "primary never spilled a contiguous prefix to disk" ]
         else [])
        @ (if floor < lw then
             [
               Printf.sprintf "restarted floor %d below archive low-water %d"
                 floor lw;
             ]
           else [])
        @
        if !unheld > 0 then
          [
            Printf.sprintf "floor %d overstates holdings: %d seqs unservable"
              floor !unheld;
          ]
        else []
  in
  let tier_extra =
    if Metrics.count (Scenario.metrics d) "archive.read" = 0 then
      [ "no retransmission was ever served from the disk tier" ]
    else []
  in
  finish "primary_crash_spill" d tk collector
    (promote_extra @ spill_extra @ tier_extra)

(* A site's secondary logger dies under ongoing tail loss: that site's
   receivers burn through [retrans_retry_limit] unanswered requests,
   discard the dead logger, and re-run expanding-ring discovery to adopt
   a live one.  Per-receiver rediscovery latency is sampled relative to
   the crash instant. *)
let secondary_crash ?(seed = 12) ?h_min ?replication () =
  let crash_at = 3.0 and restart_at = 20.0 and horizon = 40.0 in
  let lossy_site = 1 in
  let d, tk, collector =
    deploy ~cfg:(chaos_cfg ?h_min ?replication ()) ~seed ~initial_estimate:9.
      ~tail_loss:(fun site ->
        if site = lossy_site then Lbrm_sim.Loss.bernoulli 0.15
        else Lbrm_sim.Loss.none)
      ~sites:3 ~receivers_per_site:3 ()
  in
  Scenario.drive_periodic d ~interval:0.05 ~count:100 ();
  let _, victim = d.Scenario.secondaries.(lossy_site) in
  Scenario.schedule_faults d
    ~on_restart:(fun node -> forget_node tk node)
    (Fault.outage ~at:crash_at ~downtime:(restart_at -. crash_at) victim);
  Scenario.run d ~until:horizon;
  let metrics = Scenario.metrics d in
  (* Rejoin is asserted as a trace query: each orphaned receiver must
     have a D_adopted rediscovery record after the crash instant. *)
  let adoptions =
    Ev.Query.rediscovery_adoptions (Ev.Collector.records collector)
    |> List.filter (fun (r : Ev.record) -> r.Ev.at >= crash_at)
  in
  List.iter
    (fun (r : Ev.record) ->
      Metrics.observe
        (Metrics.sample metrics "rediscovery_latency")
        (r.Ev.at -. crash_at))
    adoptions;
  let orphans = Scenario.site_receivers d ~site:lossy_site in
  let extra =
    List.filter_map
      (fun (_, node) ->
        if List.exists (fun (r : Ev.record) -> r.Ev.node = node) adoptions then
          None
        else
          Some
            (Printf.sprintf "receiver %d never rediscovered a live logger"
               node))
      orphans
  in
  finish "secondary_crash" d tk collector extra

(* A whole site drops off the WAN for four seconds and heals.  Nothing
   is deliverable during the cut, so the test is pure log-based catch-up
   afterwards: every receiver behind the partition must close the gap
   through its (equally partitioned, hence initially empty-handed) site
   secondary, with no fail-over and no duplicates anywhere. *)
let partition_heal ?(seed = 13) ?replication () =
  let t0 = 2.1 and t1 = 6.1 and horizon = 30.0 in
  let cut_site = 3 in
  let d, tk, collector =
    deploy ~cfg:(chaos_cfg ?replication ()) ~seed ~initial_estimate:12.
      ~sites:4 ~receivers_per_site:3 ()
  in
  Scenario.drive_periodic d ~interval:0.05 ~count:160 ();
  Scenario.schedule_faults d
    (Fault.partition_site d.Scenario.wan ~site:cut_site ~t0 ~t1);
  Scenario.run d ~until:horizon;
  let site = d.Scenario.wan.Builders.sites.(cut_site) in
  let cut_drops =
    Topo.drops_down site.Builders.tail_up
    + Topo.drops_down site.Builders.tail_down
  in
  let extra =
    (if cut_drops = 0 then [ "partition dropped no traffic" ] else [])
    @
    let promos =
      Ev.Query.promotions (Ev.Collector.records collector) |> List.length
    in
    if promos <> 0 then
      [ Printf.sprintf "partition must not trigger fail-over (saw %d)" promos ]
    else []
  in
  finish "partition_heal" d tk collector extra

(* Seeded random soak: crash/restart cycles over loggers and a sample of
   receivers plus transient site partitions, drawn from a schedule RNG
   decoupled from the engine's.  Checked for the same gap-free /
   duplicate-free / nothing-abandoned invariants; the digest lets the
   caller assert byte-identical metrics for equal seeds. *)
let random_chaos ?(seed = 42) ?(crashes = 3) ?(partitions = 2) ?replication ()
    =
  let horizon = 20.0 and quiesce = 40.0 in
  let d, tk, collector =
    deploy ~cfg:(chaos_cfg ?replication ()) ~seed ~replica_count:1
      ~initial_estimate:8. ~sites:4 ~receivers_per_site:2 ()
  in
  Scenario.drive_periodic d ~interval:0.1 ~count:100 ();
  let hosts =
    Array.to_list (Array.map snd d.Scenario.secondaries)
    @ List.map snd d.Scenario.replicas
    @ (Array.to_list d.Scenario.receivers
      |> List.filteri (fun i _ -> i mod 3 = 0)
      |> List.map snd)
  in
  let schedule_rng = Rng.create ~seed:((seed * 7919) + 1) in
  let events =
    Fault.random_schedule ~rng:schedule_rng ~wan:d.Scenario.wan ~hosts
      ~sites:[ 1; 2; 3 ] ~crashes ~partitions ~min_down:1. ~max_down:3.
      ~horizon ()
  in
  Scenario.schedule_faults d
    ~on_restart:(fun node -> forget_node tk node)
    events;
  Scenario.run d ~until:quiesce;
  finish "random_chaos" d tk collector []

let run_scripted ?h_min ?replication () =
  [
    primary_crash ?h_min ?replication ();
    primary_crash_spill ?h_min ?replication ();
    secondary_crash ?h_min ?replication ();
    partition_heal ?replication ();
  ]
