(* Macro/micro benchmarks for the simulator hot path.

   Tracks the performance trajectory of the discrete-event engine, the
   multicast forwarding plane and the wire codec across PRs.  Emits
   machine-readable results (ops/sec plus minor-heap words per op) to
   BENCH_sim.json so successive PRs can be compared.

   Full run:   dune exec bench/micro.exe
   Smoke run:  dune exec bench/micro.exe -- --smoke     (a few hundred ms,
               no JSON unless --json is given; wired to @bench-smoke)

   Workloads:
   - engine_events:     schedule-fire timer chains through the event loop
   - timer_rearm:       1000 live watchdog timers, each re-armed in place
                        by every delivery to its owner (MaxIT pattern)
   - multicast_1k/10k:  one source multicasting over the paper's Figure-1
                        topology (sites x hosts LANs + T1 tails + backbone)
   - codec_roundtrip:   encode+decode of a 128-byte Data message through
                        the zero-copy path (scratch writer, payload views)
   - log_store_churn:   sliding-window add/get/expire against the
                        seq-indexed ring under Keep_for retention
   - archive_churn:     sustained spill through a Keep_last logger with
                        a real-file segmented archive; retransmission
                        latency split by serving tier (memory vs disk)
                        with a bounded-RSS assertion
   - membership_churn:  join/leave across 8 groups with interleaved
                        multicasts (exercises the pruned-tree cache)
   - protocol_recovery: full protocol macro — source -> loggers -> 1k
                        receivers on lossy tails, recovery via
                        NACK/retransmission
   - population_1m:     1,000,000 modeled receivers (64 sites x 15625
                        aggregate members) recovering losses behind
                        lossy tails, tracer-validated
   - chaos_failover:    scripted fault drills (primary-logger crash,
                        secondary crash under loss) reporting fail-over
                        and rediscovery latency *)

module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Builders = Lbrm_sim.Builders
module Message = Lbrm_wire.Message
module Codec = Lbrm_wire.Codec
module Payload = Lbrm_wire.Payload
module Log_store = Lbrm.Log_store
module Scenario = Lbrm_run.Scenario
module Loss = Lbrm_sim.Loss

(* Hot-path scheduling: fire-and-forget, no cancellation handle needed. *)
let post = Engine.post
let post_at = Engine.post_at

let suite = Bench_common.suite "lbrm-sim-hotpath"

let run_bench ?reps ~name f =
  ignore (Bench_common.run ?reps suite ~name f : Bench_common.result)

(* ---- engine: the schedule-fire pattern ------------------------------- *)

let bench_engine ~events () =
  let e = Engine.create () in
  let chains = 256 in
  let per = events / chains in
  for c = 0 to chains - 1 do
    let left = ref per in
    (* One closure per chain, reused for every event: what remains is the
       engine's own per-event cost. *)
    let rec tick () =
      if !left > 0 then begin
        decr left;
        post e ~delay:(1e-3 *. float_of_int ((c land 7) + 1)) tick
      end
    in
    post_at e ~time:(1e-4 *. float_of_int c) tick
  done;
  Engine.run e;
  (Engine.events_processed e, [])

(* ---- engine: live timers re-armed in place ------------------------- *)

(* The MaxIT watchdog pattern: every delivery re-arms its receiver's
   live silence timer, so while traffic flows no watchdog fires and each
   op is one delivery event plus one in-place re-key.  The watchdogs
   fire once each after the last packet. *)
let bench_timer_rearm ~timers ~packets () =
  let e = Engine.create () in
  let max_it = 0.25 and period = 0.1 in
  let fired = ref 0 in
  let watchdogs =
    Array.init timers (fun _ ->
        Engine.schedule_kind e ~kind:Engine.kind_timer ~delay:max_it (fun () ->
            incr fired))
  in
  let deliver =
    Array.init timers (fun i () ->
        Engine.reschedule e watchdogs.(i) ~delay:max_it)
  in
  let hop = Array.init 64 (fun i -> 1e-4 *. float_of_int (i + 1)) in
  let rec send p () =
    for i = 0 to timers - 1 do
      post e ~delay:hop.(i land 63) deliver.(i)
    done;
    if p + 1 < packets then post e ~delay:period (send (p + 1))
  in
  post e ~delay:0. (send 0);
  Engine.run e;
  (timers * packets, [ ("timers_fired", float_of_int !fired) ])

(* ---- multicast on the Figure-1 WAN ----------------------------------- *)

let payload = String.make 128 'd'

let bench_multicast ~sites ~hosts_per_site ~packets () =
  let wan = Builders.dis_wan ~sites ~hosts_per_site () in
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~topo:wan.topo ~size_of:String.length ()
  in
  let delivered = ref 0 in
  let handler ~src:_ _ = incr delivered in
  List.iter
    (fun h ->
      Net.join net ~group:1 h;
      Net.set_handler net h handler)
    (Builders.all_hosts wan);
  let src = wan.sites.(0).Builders.hosts.(0) in
  for i = 1 to packets do
    post_at engine ~time:(0.05 *. float_of_int i) (fun () ->
        Net.multicast net ~src ~group:1 payload)
  done;
  Engine.run engine;
  ( !delivered,
    [
      ("sends", float_of_int packets);
      ("receivers", float_of_int ((sites * hosts_per_site) - 1));
      ("events", float_of_int (Engine.events_processed engine));
    ] )

(* ---- wire codec ------------------------------------------------------ *)

let bench_codec ~ops () =
  let msg =
    Message.Data { seq = 7; epoch = 1; payload = Payload.of_string payload }
  in
  let bytes_per_op =
    match Codec.encode msg with
    | Ok s -> String.length s
    | Error _ -> assert false
  in
  (* The runtime pattern: one long-lived writer and slot, encode into
     the slot in place, decode straight back out of it.  The only per-op
     allocation left is the decoded message and its payload view. *)
  let w = Codec.Writer.create () in
  let slot = Bytes.create (Message.body_size msg) in
  let ok = ref 0 in
  for _ = 1 to ops do
    match
      Codec.encode_at_exn w slot ~pos:0 ~limit:(Bytes.length slot) msg
    with
    | exception Codec.Malformed _ -> ()
    | len -> (
        match Codec.decode_bytes ~len slot with
        | Ok _ -> incr ok
        | Error _ -> ())
  done;
  assert (!ok = ops);
  (ops, [ ("wire_bytes", float_of_int bytes_per_op) ])

(* ---- log store under sliding-window churn ---------------------------- *)

(* A logger's steady state: every packet is added once, a recent packet
   is served per arrival, and lifetime expiry continuously reclaims the
   tail.  The ring must stay at the live-window size (~200 entries here)
   no matter how many packets stream through. *)
let bench_log_store ~ops () =
  let store = Log_store.create ~retention:(Log_store.Keep_for 2.) () in
  let pl = String.make 128 'l' in
  let expired = ref 0 in
  for i = 1 to ops do
    let now = 0.01 *. float_of_int i in
    ignore (Log_store.add store ~now ~seq:i ~epoch:0 ~payload:pl);
    ignore (Log_store.get store ~now (Stdlib.max 1 (i - 100)));
    expired := !expired + Log_store.expire store ~now
  done;
  ( ops,
    [
      ("expired", float_of_int !expired);
      ("resident", float_of_int (Log_store.count store));
      ("capacity", float_of_int (Log_store.capacity store));
    ] )

(* ---- disk tier: sustained churn through a spilling logger ------------- *)

(* A logger with a 256-entry store and a real-file archive under a
   sustained stream: every op logs one 128-byte packet (spilling the
   eviction into 64 KiB segments), and every fifth op a NACK asks for
   either a fresh sequence number (still in RAM) or one ~2000 back
   (long evicted, served from a sealed segment on disk).  Requests are
   classified by [Log_store.mem] *before* the lookup, so the reported
   p50/p99 split is by the tier that actually answers.  A trailing
   compaction floor reclaims whole segments as it advances, and heap
   size is sampled through the steady state: the second half's median
   heap must stay within 30% of the first half's — the bounded-RSS
   claim of a tiered logger under unbounded history. *)
let bench_archive_churn ~ops () =
  let module Sample = Lbrm_util.Stats.Sample in
  let dir = Filename.temp_file "lbrm_archive_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let archive =
    Result.get_ok
      (Lbrm.Archive.open_ ~segment_bytes:65536 ~fs:Lbrm_run.File_ops.real
         (Filename.concat dir "logger.log"))
  in
  let cfg = { Lbrm.Config.default with retention = Log_store.Keep_last 256 } in
  let l =
    Lbrm.Logger.create cfg ~self:5 ~source:1 ~parent:2 ~archive
      ~rng:(Lbrm_util.Rng.create ~seed:3) ()
  in
  let payload = Payload.of_string (String.make 128 'a') in
  let store = Lbrm.Logger.store l in
  (* Latency buffers are preallocated at full capacity: the heap-bound
     check below must see the logger's footprint, not the harness
     accreting observations. *)
  let cap = (ops / 5) + 1 in
  let mem_lat = Array.make cap 0. and disk_lat = Array.make cap 0. in
  let mem_n = ref 0 and disk_n = ref 0 in
  let heap_first = Sample.create () and heap_second = Sample.create () in
  for i = 1 to ops do
    let now = 0.001 *. float_of_int i in
    ignore
      (Lbrm.Logger.handle_message l ~now ~src:1
         (Message.Data { seq = i; epoch = 0; payload })
        : Lbrm.Io.out);
    if i mod 5 = 0 && i > 2100 then begin
      let target = if i mod 10 = 0 then i - 3 else i - 2000 in
      let lat, n =
        if Log_store.mem store target then (mem_lat, mem_n)
        else (disk_lat, disk_n)
      in
      let t0 = Lbrm_run.Sockmsg.monotonic_now () in
      ignore
        (Lbrm.Logger.handle_message l ~now ~src:10
           (Message.Nack { seqs = [ target ] })
          : Lbrm.Io.out);
      lat.(!n) <- 1e6 *. (Lbrm_run.Sockmsg.monotonic_now () -. t0);
      incr n;
      (* Fire the request-counting window timer the serve just armed
         (the simulator's timer plane normally does this); without it
         the per-seq windows accrete for the whole run. *)
      ignore
        (Lbrm.Logger.handle_timer l ~now (Lbrm.Io.K_remcast target)
          : Lbrm.Io.out)
    end;
    if i mod 4096 = 0 then
      ignore (Lbrm.Logger.compact_archive l ~now ~floor:(i - 8192) : int);
    (* Live-set sampling starts after the warm-up quarter so the ramp to
       steady state doesn't depress the first-half median.  Live words
       (Gc.stat walks the heap, hence the sparse cadence) rather than
       heap words: on a heap this small, allocator growth policy and
       fragmentation would swamp the claim actually being made — that
       the logger's live data stays bounded as history accumulates. *)
    if i mod 2048 = 0 && 4 * i >= ops then
      Sample.add
        (if 2 * i <= ops then heap_first else heap_second)
        (float_of_int (Gc.stat ()).Gc.live_words)
  done;
  let pct lat n p =
    if n = 0 then 0.
    else begin
      let a = Array.sub lat 0 n in
      Array.sort Float.compare a;
      a.(Stdlib.min (n - 1)
           (int_of_float ((p /. 100. *. float_of_int (n - 1)) +. 0.5)))
    end
  in
  let med s = if Sample.count s > 0 then Sample.median s else 0. in
  let heap_growth = med heap_second /. Float.max 1. (med heap_first) in
  let extra =
    [
      ("mem_lookups", float_of_int !mem_n);
      ("disk_lookups", float_of_int !disk_n);
      ("p50_mem_us", pct mem_lat !mem_n 50.);
      ("p99_mem_us", pct mem_lat !mem_n 99.);
      ("p50_disk_us", pct disk_lat !disk_n 50.);
      ("p99_disk_us", pct disk_lat !disk_n 99.);
      ("rotations", float_of_int (Lbrm.Archive.rotations archive));
      ("compactions", float_of_int (Lbrm.Archive.compactions archive));
      ( "resident_segments",
        float_of_int (List.length (Lbrm.Archive.segments archive)) );
      ("heap_growth", heap_growth);
    ]
  in
  let files = Lbrm.Archive.files archive in
  Lbrm.Archive.close archive;
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) files;
  Unix.rmdir dir;
  (* The bound is only meaningful once the trailing compaction floor has
     started reclaiming segments (first pass at i = 12288); smoke-scale
     runs stop before it and legitimately accrete segment metadata. *)
  if ops >= 20_000 && heap_growth > 1.3 then
    Printf.ksprintf failwith
      "archive_churn: heap grew %.2fx across the run (unbounded RSS?)"
      heap_growth;
  (ops, extra)

(* ---- full-protocol recovery macro ------------------------------------ *)

(* The paper's reference deployment (sites x receivers behind lossy tail
   circuits) driven end-to-end: periodic multicasts, per-site loss,
   receivers detecting gaps and recovering through the logger hierarchy.
   Ops = packets delivered to applications; the extras expose how much
   recovery traffic that took. *)
let bench_recovery ?sink ~sites ~receivers_per_site ~packets () =
  let interval = 0.1 in
  let d =
    Scenario.standard ~seed:7
      ~initial_estimate:(float_of_int (sites * receivers_per_site))
      ~tail_loss:(fun _site -> Loss.bernoulli 0.03)
      ?sink ~sites ~receivers_per_site ()
  in
  Scenario.drive_periodic d ~interval ~count:packets ();
  Scenario.run d ~until:((float_of_int packets +. 1.) *. interval +. 60.);
  let sum_receivers f =
    Array.fold_left (fun acc (r, _) -> acc + f r) 0 d.Scenario.receivers
  in
  let delivered = sum_receivers Lbrm.Receiver.delivered in
  let served =
    Array.fold_left
      (fun acc (l, _) -> acc + Lbrm.Logger.requests_served l)
      (Lbrm.Logger.requests_served d.Scenario.primary)
      d.Scenario.secondaries
  in
  ( delivered,
    [
      ("packets", float_of_int packets);
      ("receivers", float_of_int (Array.length d.Scenario.receivers));
      ("recovered", float_of_int (sum_receivers Lbrm.Receiver.recovered));
      ("nacks", float_of_int (sum_receivers Lbrm.Receiver.nacks_sent));
      ("requests_served", float_of_int served);
      ("missing", float_of_int (Scenario.total_missing d));
    ] )

(* Same macro with typed tracing into a ring buffer: the delta against
   protocol_recovery is the cost of the enabled observability plane
   (the disabled plane's cost is already inside protocol_recovery,
   whose machines all carry a null sink). *)
let bench_recovery_traced ~sites ~receivers_per_site ~packets () =
  let ring = Lbrm.Trace.Ring.create ~capacity:65536 in
  let ops, extra =
    bench_recovery
      ~sink:(Lbrm.Trace.Ring.sink ring)
      ~sites ~receivers_per_site ~packets ()
  in
  ( ops,
    extra
    @ [
        ("trace_pushed", float_of_int (Lbrm.Trace.Ring.pushed ring));
        ("trace_dropped", float_of_int (Lbrm.Trace.Ring.dropped ring));
      ] )

(* ---- membership churn against the pruned-tree cache ------------------ *)

(* 8 groups on a small WAN: groups 0..6 churn (one join/leave per op),
   group 7 is stable.  Every op multicasts both to the group just
   touched and to the stable group, so the cache must (a) stay bounded
   under churn and (b) not recompute group 7's tree when group g's
   membership changes. *)
let bench_churn ~ops () =
  let wan = Builders.dis_wan ~sites:8 ~hosts_per_site:4 () in
  let engine = Engine.create () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of:String.length () in
  let hosts = Array.of_list (Builders.all_hosts wan) in
  let n = Array.length hosts in
  let src = hosts.(0) in
  Array.iter (fun h -> Net.set_handler net h (fun ~src:_ _ -> ())) hosts;
  (* Stable group 7 plus initial members everywhere. *)
  for i = 1 to n - 1 do
    Net.join net ~group:7 hosts.(i);
    Net.join net ~group:(i mod 7) hosts.(i)
  done;
  let present = Array.make (7 * n) false in
  for i = 1 to n - 1 do
    present.((i mod 7 * n) + i) <- true
  done;
  for i = 0 to ops - 1 do
    let g = i mod 7 in
    let h = 1 + (i * 13 mod (n - 1)) in
    let slot = (g * n) + h in
    if present.(slot) then Net.leave net ~group:g hosts.(h)
    else Net.join net ~group:g hosts.(h);
    present.(slot) <- not present.(slot);
    Net.multicast net ~src ~group:g payload;
    Net.multicast net ~src ~group:7 payload;
    (* Drain so in-flight packets don't pile up across iterations. *)
    Engine.run engine
  done;
  let hits = Net.mcast_cache_hits net in
  let builds = Net.mcast_tree_builds net in
  let extra =
    [
      ("events", float_of_int (Engine.events_processed engine));
      ("cache_size", float_of_int (Net.mcast_cache_size net));
      ("tree_builds", float_of_int builds);
      ( "cache_hit_rate",
        float_of_int hits /. float_of_int (Stdlib.max 1 (hits + builds)) );
    ]
  in
  (ops, extra)

(* ---- aggregate populations: 1M+ modeled receivers -------------------- *)

(* The tentpole scale test: [sites] aggregate populations of [members]
   receivers each (64 x 15625 = 1,000,000 in the full run) behind lossy
   tail circuits, driven through a full lossy-recovery workload.  Ops =
   modeled receiver-packet deliveries — the quantity the statistical
   aggregation makes cheap; per-packet cost is O(sites + distinct gaps),
   not O(receivers).  [tracer_agreement_z] is the worst per-site
   z-statistic of the tracer receivers against the aggregate draws
   (low single digits = the joint sampler is honest), and [heap_mb]
   pins the bounded-memory claim into the results file. *)
let bench_population ~sites ~members ~packets () =
  let module SP = Lbrm_sim.Site_population in
  let module Population = Lbrm_run.Population in
  let interval = 0.1 in
  let d =
    Scenario.standard ~seed:13
      ~initial_estimate:(float_of_int (sites * members))
      ~tail_loss:(fun _site -> Loss.bernoulli 0.01)
      ~site_population:(Scenario.population_spec ~members ~lan_loss:0.005 ())
      ~sites ~receivers_per_site:0 ()
  in
  Scenario.drive_periodic d ~interval ~count:packets ();
  Scenario.run d ~until:((float_of_int packets +. 1.) *. interval +. 60.);
  let fold f init =
    Array.fold_left
      (fun acc (p, _) -> f acc (Population.model p))
      init d.Scenario.populations
  in
  let delivered = fold (fun a m -> a + SP.delivered m) 0 in
  let max_z =
    fold (fun a m -> Float.max a (Float.abs (SP.agreement_z m))) 0.
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6
  in
  ( delivered,
    [
      ("modeled_receivers", float_of_int (sites * members));
      ("packets", float_of_int packets);
      ("recovered", float_of_int (fold (fun a m -> a + SP.recovered m) 0));
      ("missing", float_of_int (fold (fun a m -> a + SP.missing m) 0));
      ("gave_up", float_of_int (fold (fun a m -> a + SP.gave_up m) 0));
      ("tracer_agreement_z", max_z);
      ("heap_mb", heap_mb);
    ] )

(* ---- replication: strategy deposit/ack hot path ---------------------- *)

(* Pump the source-side {!Lbrm.Replication} machine directly: one
   deposit plus its matching ack(s) per op, no network or engine in the
   loop.  Measures the per-packet cost of each strategy's deposit
   routing and ack-floor bookkeeping (the quorum path's floor sort is a
   zero-alloc manifest entry). *)
let bench_replication ~replication ~ops () =
  let cfg = { Lbrm.Config.default with replication } in
  let members = [ 2; 3; 4 ] in
  let rep =
    Lbrm.Replication.create cfg ~self:1 ~primary:2
      ~replicas:(List.tl members)
      ~retained:(Hashtbl.create 1)
      ()
  in
  let out = Lbrm.Io.out () in
  let payload = String.make 128 'x' in
  for seq = 1 to ops do
    (* Each op is one call: drop the previous op's actions. *)
    Lbrm.Io.begin_call out;
    Lbrm.Replication.deposit rep out ~now:0.0 ~seq ~epoch:1 ~payload;
    let ack msg src =
      ignore (Lbrm.Replication.on_message rep out ~now:0.0 ~src msg : bool)
    in
    match replication with
    | Lbrm.Config.R_primary ->
        ack (Message.Log_ack { primary_seq = seq; replica_seq = seq }) 2
    | Lbrm.Config.R_ring -> ack (Message.Ring_ack { seq }) 4
    | Lbrm.Config.R_quorum ->
        List.iter (fun m -> ack (Message.Quorum_ack { seq }) m) members
  done;
  assert (Lbrm.Replication.durable rep = ops);
  (ops, [])

(* ---- chaos: fail-over and rediscovery under injected faults ---------- *)

(* End-to-end fault drills: a primary-logger crash mid-stream and a
   secondary-logger crash under tail loss.  Ops = application
   deliveries across both; the extras put the headline robustness
   numbers (fail-over / rediscovery latency) into BENCH_sim.json.
   [violations] must stay 0 — a nonzero value means an invariant
   (gap-free, duplicate-free, nothing abandoned) broke. *)
let bench_chaos () =
  let module Chaos = Lbrm_run.Chaos in
  let module Sample = Lbrm_util.Stats.Sample in
  let p = Chaos.primary_crash () in
  let s = Chaos.secondary_crash () in
  let fl = Lbrm_sim.Trace.sample p.Chaos.trace "failover_latency" in
  let rl = Lbrm_sim.Trace.sample s.Chaos.trace "rediscovery_latency" in
  let violations =
    List.length p.Chaos.violations + List.length s.Chaos.violations
  in
  ( p.Chaos.delivered + s.Chaos.delivered,
    [
      ("violations", float_of_int violations);
      ("failover_latency", Sample.median fl);
      ("rediscovery_latency", Sample.median rl);
      ("rediscovery_latency_p99", Sample.percentile rl 99.);
      ("failovers", float_of_int p.Chaos.failovers);
      ("rediscoveries", float_of_int s.Chaos.rediscoveries);
      ("durable", float_of_int p.Chaos.durable);
    ] )

(* The same primary-crash drill under the ring / quorum strategies: the
   replica-set head dies mid-stream, the source must promote.  Extras
   report the strategy's fail-over latency and its window of loss (the
   promotion's re-deposit count — packets the strategy had not made
   durable at the new floor). *)
let bench_chaos_strategy ~replication () =
  let module Chaos = Lbrm_run.Chaos in
  let module Sample = Lbrm_util.Stats.Sample in
  let p = Chaos.primary_crash ~replication () in
  let fl = Lbrm_sim.Trace.sample p.Chaos.trace "failover_latency" in
  let wl = Lbrm_sim.Trace.sample p.Chaos.trace "window_of_loss" in
  ( p.Chaos.delivered,
    [
      ("violations", float_of_int (List.length p.Chaos.violations));
      ("failover_latency", Sample.median fl);
      ("window_of_loss", Sample.median wl);
      ("failovers", float_of_int p.Chaos.failovers);
      ("durable", float_of_int p.Chaos.durable);
    ] )

(* ---------------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let json =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> if smoke then None else Some "BENCH_sim.json"
    in
    find args
  in
  let scale n = if smoke then max 1 (n / 20) else n in
  let reps = if smoke then 1 else 3 in
  run_bench ~reps ~name:"engine_events" (bench_engine ~events:(scale 2_000_000));
  run_bench ~reps ~name:"timer_rearm"
    (bench_timer_rearm ~timers:1000 ~packets:(scale 2_000));
  run_bench ~reps ~name:"multicast_1k"
    (bench_multicast ~sites:50 ~hosts_per_site:20 ~packets:(scale 100));
  if not smoke then
    run_bench ~reps ~name:"multicast_10k"
      (bench_multicast ~sites:500 ~hosts_per_site:20 ~packets:20);
  run_bench ~reps ~name:"codec_roundtrip" (bench_codec ~ops:(scale 400_000));
  run_bench ~reps ~name:"log_store_churn"
    (bench_log_store ~ops:(scale 400_000));
  run_bench ~reps:1 ~name:"archive_churn"
    (bench_archive_churn ~ops:(scale 100_000));
  run_bench ~reps ~name:"membership_churn" (bench_churn ~ops:(scale 10_000));
  run_bench ~reps:(if smoke then 1 else 2) ~name:"protocol_recovery"
    (bench_recovery ?sink:None ~sites:50 ~receivers_per_site:20
       ~packets:(scale 200));
  run_bench ~reps:(if smoke then 1 else 2) ~name:"protocol_recovery_traced"
    (bench_recovery_traced ~sites:50 ~receivers_per_site:20
       ~packets:(scale 200));
  run_bench ~reps:1 ~name:"population_1m"
    (bench_population ~sites:64 ~members:(scale 15_625)
       ~packets:(if smoke then 10 else 60));
  run_bench ~reps ~name:"replication_primary"
    (bench_replication ~replication:Lbrm.Config.R_primary
       ~ops:(scale 200_000));
  run_bench ~reps ~name:"replication_ring"
    (bench_replication ~replication:Lbrm.Config.R_ring ~ops:(scale 200_000));
  run_bench ~reps ~name:"replication_quorum"
    (bench_replication ~replication:Lbrm.Config.R_quorum ~ops:(scale 200_000));
  (* Fixed-size drills: the virtual-time schedules are part of the
     scenario, so there is nothing to scale down for smoke. *)
  run_bench ~reps:1 ~name:"chaos_failover" bench_chaos;
  run_bench ~reps:1 ~name:"chaos_failover_ring"
    (bench_chaos_strategy ~replication:Lbrm.Config.R_ring);
  run_bench ~reps:1 ~name:"chaos_failover_quorum"
    (bench_chaos_strategy ~replication:Lbrm.Config.R_quorum);
  match json with
  | Some path ->
      Bench_common.emit_json suite path;
      Printf.printf "wrote %s\n%!" path
  | None -> ()
