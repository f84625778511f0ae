(* The per-layer metrics of a traced run.  Every workload reports the
   whole list, so a layer a workload never touches reads 0 there — the
   prediction for a change to that layer is "no movement".  The comment
   on each group names the end-to-end metric it should move, and where
   (lbrm_bench/README.md has the full map). *)

let schema =
  [
    (* Sim_runtime + Engine + Net: goodput_pps and alloc_words_per_pkt on
       sim_recovery; nothing on udp_* *)
    ("sim.run_self_s", "s");
    ("engine.events.packet", "count");
    ("engine.events.timer", "count");
    ("net.link_transits", "count");
    ("net.mcast_tree_builds", "count");
    ("net.mcast_cache_hit_rate", "ratio");
    (* Source / Logger / Receiver machines: latency_* and goodput_pps on
       sim_recovery, latency_p50_ms on udp_lossy *)
    ("source.handle_s", "s");
    ("source.calls", "count");
    ("source.ns_per_call", "ns");
    ("logger.handle_s", "s");
    ("logger.calls", "count");
    ("logger.ns_per_call", "ns");
    ("receiver.handle_s", "s");
    ("receiver.calls", "count");
    ("receiver.ns_per_call", "ns");
    ("recovery.repairs_per_nack", "ratio");
    ("recovery.serves_per_repair", "ratio");
    ("receiver.gave_up", "count");
    ("logger.remulticasts", "count");
    (* Archive (fs calls under the loggers): goodput_pps on udp_deposit.
       No workload reads the disk tier back; bench/micro.exe's
       archive_churn row covers reads. *)
    ("archive.append.s", "s");
    ("archive.append.calls", "count");
    ("archive.append.bytes", "bytes");
    ("archive.fsync.s", "s");
    ("archive.fsync.calls", "count");
    ("archive.other.s", "s");
    ("archive.other.calls", "count");
    ("archive.rotations", "count");
    ("archive.compactions", "count");
    (* Replication strategies: goodput_pps on udp_deposit.  The on-group
       share is 0 while the R_primary durable-floor defect stands (1
       once fixed); it moves no end-to-end metric. *)
    ("deposit.primary_pps", "1/s");
    ("deposit.ring_pps", "1/s");
    ("deposit.quorum_pps", "1/s");
    ("deposit.primary_on_group_durable_frac", "ratio");
    (* Udp_runtime / Sockmsg / Buf_pool: goodput_pps on udp_stream,
       latency_p50_ms on udp_lossy *)
    ("udp.runtime_self_s", "s");
    ("udp.rx_per_batch", "ratio");
    ("udp.tx_per_batch", "ratio");
    ("udp.tx_datagrams", "count");
    ("udp.pool_fallbacks", "count");
    ("udp.injected_drops", "count");
    ("sockmsg.tx_gso_share", "ratio");
    ("sockmsg.tx_sendto_share", "ratio");
    (* Codec (estimated from replayed samples): goodput_pps and
       alloc_words_per_pkt on udp_stream *)
    ("codec.encode_s", "s");
    ("codec.decode_s", "s");
    (* the whole process over the measured phase *)
    ("cpu.user_s", "s");
    ("cpu.sys_s", "s");
    ("cpu.idle_s", "s");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    (* harness: validity of the run, not performance.  Counts and times
       above are totals over the measured phase; harness.packets (its
       deliveries, or packets made durable) puts them per packet. *)
    ("harness.packets", "count");
    ("harness.wall_s", "s");
    ("harness.self_s", "s");
    ("harness.gen_lag_p99_ms", "ms");
    ("harness.trace_spans", "count");
    ("harness.trace_cost_s", "s");
    (* CPU per packet of this traced run over that of a shorter untraced
       run of the same workload and seed, minus 1 (set by lbrm_bench.ml) *)
    ("harness.trace_overhead", "ratio");
  ]

let machine_self () =
  Span.self.(Span.sp_source) +. Span.self.(Span.sp_logger)
  +. Span.self.(Span.sp_receiver)

(* Measured-phase time outside every outermost span, plus the
   application callbacks the runtimes call back into. *)
let harness_self ~wall =
  wall -. !Span.top_level +. Span.total.(Span.sp_callback)

(* Useful outcomes per attempt on the recovery path: repairs delivered
   per NACK sent, and logger retransmissions per repair delivered (above
   1, retransmissions nobody needed). *)
let recovery ~nacks ~recovered ~served ~gave_up ~remcasts =
  let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  [
    ("recovery.repairs_per_nack", per recovered nacks);
    ("recovery.serves_per_repair", per served recovered);
    ("receiver.gave_up", float_of_int gave_up);
    ("logger.remulticasts", float_of_int remcasts);
  ]

(* The complete per-layer list: span-derived and process-wide values
   computed here, the workload's own values from [specific], every
   other metric 0. *)
let report ~wall ~(cpu : Kit.cpu) ~minor_collections ~major_collections
    ~packets specific =
  let spans = !Span.finished in
  let role name id =
    let calls = Span.count.(id) and s = Span.self.(id) in
    [
      (name ^ ".handle_s", s);
      (name ^ ".calls", float_of_int calls);
      ( name ^ ".ns_per_call",
        if calls = 0 then 0. else s /. float_of_int calls *. 1e9 );
    ]
  in
  let fs name id ~with_bytes =
    [
      (name ^ ".s", Span.total.(id));
      (name ^ ".calls", float_of_int Span.count.(id));
    ]
    @
    if with_bytes then [ (name ^ ".bytes", float_of_int Span.bytes.(id)) ]
    else []
  in
  let computed =
    role "source" Span.sp_source
    @ role "logger" Span.sp_logger
    @ role "receiver" Span.sp_receiver
    @ fs "archive.append" Span.sp_append ~with_bytes:true
    @ fs "archive.fsync" Span.sp_fsync ~with_bytes:false
    @ fs "archive.other" Span.sp_fs_other ~with_bytes:false
    @ [
        ("cpu.user_s", cpu.Kit.user);
        ("cpu.sys_s", cpu.Kit.sys);
        ("cpu.idle_s", wall -. cpu.Kit.user -. cpu.Kit.sys);
        ("gc.minor_collections", float_of_int minor_collections);
        ("gc.major_collections", float_of_int major_collections);
        ("harness.packets", float_of_int packets);
        ("harness.wall_s", wall);
        ("harness.self_s", harness_self ~wall);
        ("harness.trace_spans", float_of_int spans);
        ("harness.trace_cost_s", float_of_int spans *. !Span.per_span);
      ]
  in
  let values = computed @ specific in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name schema) then
        invalid_arg ("Layers.report: metric outside the schema: " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      Kit.metric name unit_
        (Option.value ~default:0. (List.assoc_opt name values)))
    schema
