module Builders = Lbrm_sim.Builders
module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Site_population = Lbrm_sim.Site_population
module Message = Lbrm_wire.Message
module Rng = Lbrm_util.Rng
module Metrics = Lbrm_util.Metrics

type node_id = Lbrm_sim.Topo.node_id

type population_spec = { members : int; tracers : int; lan_loss : float }

let population_spec ?(tracers = 2) ?(lan_loss = 0.005) ~members () =
  assert (members >= 1 && tracers >= 0 && tracers <= members);
  { members; tracers; lan_loss }

type deployment = {
  runtime : Sim_runtime.t;
  wan : Builders.wan;
  cfg : Lbrm.Config.t;
  source : Lbrm.Source.t;
  source_node : node_id;
  mutable primary : Lbrm.Logger.t;
  primary_node : node_id;
  mutable replicas : (Lbrm.Logger.t * node_id) list;
  secondaries : (Lbrm.Logger.t * node_id) array;
  receivers : (Lbrm.Receiver.t * node_id) array;
  (* aggregate per-site receiver populations, index = site ([||] unless
     requested), with their tracer cross-check receivers site-major *)
  populations : (Population.t * node_id) array;
  tracer_receivers : (Lbrm.Receiver.t * node_id) array;
  (* regional (mid-tier) loggers, when a hierarchy was requested *)
  mutable regionals : (Lbrm.Logger.t * node_id) list;
  (* per-receiver delivered seqs, for completeness checks *)
  delivered : (node_id, (int, unit) Hashtbl.t) Hashtbl.t;
  (* node -> fresh-machine factory, run when a crashed node restarts *)
  rebuilders : (node_id, unit -> unit) Hashtbl.t;
  (* node -> the archive handle its logger currently serves from (only
     with ~archive:true; rebuilt handles replace crashed ones, the
     backing in-memory fs survives the crash like a disk would) *)
  archives : (node_id, Lbrm.Archive.t) Hashtbl.t;
}

let swap node m entries =
  List.map (fun (m0, n) -> if n = node then (m, n) else (m0, n)) entries

(* The one deployment builder behind {!standard} and {!hierarchical}.
   Host layout per site: host 0 is the site's secondary logger; at site
   0, hosts 1 and 2 are the source and the primary and hosts
   3…2+replica_count its replicas; with a regional tier
   ([sites_per_region]) host 3+replica_count of each region's first
   site is the regional logger, the slot reserved at every site.  The
   receivers follow, then a populated site's population host and its
   tracers.

   Each role has one factory that makes the machine and installs it with
   [Sim_runtime.replace_agent] (removing an absent agent is a no-op), so
   the build and the restart rebuilders share it.  The build makes
   machines in role order — source, primary, replicas, regionals,
   secondaries, receivers, then per site the population model and its
   tracers — which is the [Rng.split] order; then it joins, then starts
   everything. *)
let build ~cfg ~seed ~replica_count ?initial_estimate ?tail_loss ?on_deliver
    ?on_notice ?on_source_notice ~logging ?sink ?site_population ?mcast_cache
    ~archive ?sites_per_region ~sites ~receivers_per_site () =
  let regional_slot = 3 + replica_count in
  let reserved =
    if Option.is_some sites_per_region then regional_slot + 1
    else regional_slot
  in
  let pop_base = reserved + receivers_per_site in
  let pop_hosts =
    match site_population with None -> 0 | Some s -> 1 + s.tracers
  in
  let wan =
    Builders.dis_wan ~sites ~hosts_per_site:(pop_base + pop_hosts) ()
  in
  Option.iter
    (fun f ->
      Array.iteri
        (fun i site ->
          Lbrm_sim.Topo.set_link_loss site.Builders.tail_down (f i))
        wan.sites)
    tail_loss;
  let engine = Engine.create ~seed () in
  let net =
    Net.create ?mcast_cache_size:mcast_cache ~engine ~topo:wan.topo
      ~size_of:Message.wire_size ()
  in
  let runtime = Sim_runtime.create ~net ~trace:(Metrics.create ()) () in
  let rng = Rng.split (Engine.rng engine) in
  let host site i = Builders.host wan ~site i in
  let source_node = host 0 1 and primary_node = host 0 2 in
  let replica_nodes = List.init replica_count (fun i -> host 0 (3 + i)) in
  let source =
    Lbrm.Source.create cfg ~self:source_node ~primary:primary_node
      ~replicas:replica_nodes ?initial_estimate ?sink ()
  in
  Sim_runtime.replace_agent runtime ~node:source_node
    (Handlers.of_source ?on_notice:on_source_notice source);
  (* At build time this is [primary_node]; at a restart it is whoever
     fail-over left in the role while the node was down. *)
  let current_primary () = Lbrm.Source.primary source in
  (* A region's logger sits at its first site. *)
  let regional_of site =
    match sites_per_region with
    | None -> []
    | Some k -> [ host (site / k * k) regional_slot ]
  in
  (* A site's recovery hierarchy, nearest first. *)
  let hierarchy site =
    match logging with
    | `Centralized -> [ current_primary () ]
    | `Distributed ->
        (host site 0 :: regional_of site) @ [ current_primary () ]
  in
  (* Disk tiers: one persistent in-memory fs per log host.  The fs
     outlives the logger machine — a crash loses the machine (and its
     in-memory store) but not the "disk", exactly as a restart would
     find real files — so a rebuilt logger's reopen recovers segments,
     index and low-water mark from what was durably written. *)
  let archive_fs : (node_id, Lbrm.Archive.fs) Hashtbl.t = Hashtbl.create 8 in
  let archives : (node_id, Lbrm.Archive.t) Hashtbl.t = Hashtbl.create 8 in
  let open_archive node =
    if not archive then None
    else
      let fs =
        match Hashtbl.find_opt archive_fs node with
        | Some fs -> fs
        | None ->
            let fs = Lbrm.Archive.in_memory () in
            Hashtbl.replace archive_fs node fs;
            fs
      in
      match
        Lbrm.Archive.open_
          ~segment_bytes:cfg.Lbrm.Config.archive_segment_bytes
          ~index_stride:cfg.Lbrm.Config.archive_index_stride
          ~lwm_stride:cfg.Lbrm.Config.archive_lwm_stride ~fs
          (Printf.sprintf "logger-%d.log" node)
      with
      | Ok a ->
          Hashtbl.replace archives node a;
          Some a
      | Error e -> failwith (Printf.sprintf "archive open (node %d): %s" node e)
  in
  (* Under ring replication the log hosts form an ordered chain
     head -> replica_1 -> ... -> replica_n (tail); each member knows only
     its successor.  Under primary/quorum there is no chain. *)
  let log_hosts = primary_node :: replica_nodes in
  let ring_succ node =
    match cfg.Lbrm.Config.replication with
    | Lbrm.Config.R_ring ->
        let rec next = function
          | a :: b :: _ when a = node -> Some b
          | _ :: rest -> next rest
          | [] -> None
        in
        next log_hosts
    | Lbrm.Config.R_primary | Lbrm.Config.R_quorum -> None
  in
  let notice node = Option.map (fun f ~now n -> f node ~now n) on_notice in
  (* A logger whose parent would be itself heads the replica set: the
     other log hosts are its replicas and, under ring replication, its
     original successor follows it.  Any other logger is a plain
     secondary of [parent]; a later Ring_set can splice a demoted log
     host back into a chain. *)
  let logger ~rng ?succ ~parent node =
    let l =
      if parent = node then
        Lbrm.Logger.create cfg ~self:node ~source:source_node
          ~replicas:(List.filter (fun n -> n <> node) log_hosts)
          ?succ:(ring_succ node) ?archive:(open_archive node)
          ~rng:(Rng.split rng) ?sink ()
      else
        Lbrm.Logger.create cfg ~self:node ~source:source_node ~parent ?succ
          ?archive:(open_archive node) ~rng:(Rng.split rng) ?sink ()
    in
    Sim_runtime.replace_agent runtime ~node (Handlers.of_logger l);
    l
  in
  let delivered = Hashtbl.create 64 in
  let receiver ~site node =
    let r =
      Lbrm.Receiver.create ?sink cfg ~self:node ~source:source_node
        ~loggers:(hierarchy site)
    in
    let seen =
      match Hashtbl.find_opt delivered node with
      | Some seen -> seen
      | None ->
          let seen = Hashtbl.create 64 in
          Hashtbl.replace delivered node seen;
          seen
    in
    let deliver ~now ~seq ~payload ~recovered =
      Hashtbl.replace seen seq ();
      match on_deliver with
      | Some f -> f node ~now ~seq ~payload ~recovered
      | None -> ()
    in
    Sim_runtime.replace_agent runtime ~node
      (Handlers.of_receiver ~on_deliver:deliver ?on_notice:(notice node) r);
    (r, node)
  in
  (* An aggregate population: one protocol agent standing in for
     [members] receivers, feeding its [tracers] real cross-check
     receivers (via Sim_runtime.inject) exactly the loss outcomes the
     model sampled for them. *)
  let population ~rng spec site =
    let node = host site pop_base in
    let model =
      Site_population.create ~tracers:spec.tracers ~size:spec.members
        ~lan_loss:spec.lan_loss ~rng:(Rng.split rng) ()
    in
    let p =
      Population.create ?sink ~cfg ~self:node ~source:source_node
        ~loggers:(hierarchy site) ~model
        ~on_feed:(fun ~tracer ~now:_ ~src msg ->
          Sim_runtime.inject runtime
            ~node:(host site (pop_base + 1 + tracer))
            ~src msg)
        ()
    in
    Sim_runtime.replace_agent runtime ~node
      (Population.handlers ?on_notice:(notice node) p);
    (p, node)
  in
  let primary = logger ~rng ~parent:primary_node primary_node in
  let replicas =
    List.map
      (fun node ->
        (logger ~rng ?succ:(ring_succ node) ~parent:primary_node node, node))
      replica_nodes
  in
  let regionals =
    match sites_per_region with
    | None -> []
    | Some k ->
        List.init (sites / k) (fun r ->
            let node = host (r * k) regional_slot in
            (logger ~rng ~parent:primary_node node, node))
  in
  (* A site secondary's parent is the next logger up its hierarchy. *)
  let secondary ~rng site =
    let node = host site 0 in
    (logger ~rng ~parent:(List.nth (hierarchy site) 1) node, node)
  in
  let secondaries =
    match logging with
    | `Centralized -> [||]
    | `Distributed -> Array.init sites (secondary ~rng)
  in
  let receivers =
    Array.init (sites * receivers_per_site) (fun i ->
        let site = i / receivers_per_site in
        receiver ~site (host site (reserved + (i mod receivers_per_site))))
  in
  (* Population Rng splits stay behind the option, so population-free
     deployments draw nothing here. *)
  let populations, tracer_receivers =
    match site_population with
    | None -> ([||], [||])
    | Some spec ->
        let rows =
          Array.init sites (fun site ->
              let p = population ~rng spec site in
              ( p,
                Array.init spec.tracers (fun j ->
                    receiver ~site (host site (pop_base + 1 + j))) ))
        in
        ( Array.map fst rows,
          Array.concat (Array.to_list (Array.map snd rows)) )
  in
  (* Group membership: loggers and receivers listen on the data group;
     loggers answer discovery.  Population agents listen on the data
     group for their whole site; tracer receivers join nothing — they
     see multicast traffic only through the population's sampled feed. *)
  let join group (_, node) = Sim_runtime.join runtime ~group ~node in
  let join_logger l =
    join cfg.group l;
    join cfg.discovery_group l
  in
  join_logger (primary, primary_node);
  List.iter join_logger replicas;
  List.iter join_logger regionals;
  Array.iter join_logger secondaries;
  Array.iter (join cfg.group) receivers;
  Array.iter (join cfg.group) populations;
  let start_receiver (r, node) =
    Sim_runtime.perform runtime ~node
      (Lbrm.Receiver.start r ~now:(Sim_runtime.now runtime))
  in
  let start_population (p, node) =
    Sim_runtime.perform runtime ~node
      (Population.start p ~now:(Sim_runtime.now runtime))
  in
  Sim_runtime.perform runtime ~node:source_node
    (Lbrm.Source.start source ~now:(Sim_runtime.now runtime));
  Array.iter start_receiver receivers;
  Array.iter start_population populations;
  Array.iter start_receiver tracer_receivers;
  let d =
    {
      runtime;
      wan;
      cfg;
      source;
      source_node;
      primary;
      primary_node;
      replicas;
      secondaries;
      receivers;
      populations;
      tracer_receivers;
      regionals;
      delivered;
      rebuilders = Hashtbl.create 16;
      archives;
    }
  in
  (* Restart factories.  A restarted process has no soft state, so every
     rebuilder makes its machine from scratch through the role's factory
     — empty log store, fresh discovery, a fresh population model —
     homed on whoever the source currently considers primary.  Unlike
     the build, a replica that comes back while not primary has no
     successor.  [fault_rng] is split after all build streams, so
     deployments that never crash are unaffected by it. *)
  let fault_rng = Rng.split rng in
  let rebuild node f = Hashtbl.replace d.rebuilders node f in
  let relog node = logger ~rng:fault_rng ~parent:(current_primary ()) node in
  rebuild primary_node (fun () -> d.primary <- relog primary_node);
  List.iter
    (fun (_, node) ->
      rebuild node (fun () -> d.replicas <- swap node (relog node) d.replicas))
    replicas;
  List.iter
    (fun (_, node) ->
      rebuild node (fun () ->
          d.regionals <- swap node (relog node) d.regionals))
    regionals;
  Array.iteri
    (fun site (_, node) ->
      rebuild node (fun () ->
          d.secondaries.(site) <- secondary ~rng:fault_rng site))
    secondaries;
  let rebuild_receiver into i (_, node) =
    rebuild node (fun () ->
        let site = Option.get (Builders.site_of_host wan node) in
        into.(i) <- receiver ~site node;
        start_receiver into.(i))
  in
  Array.iteri (rebuild_receiver d.receivers) receivers;
  Array.iteri (rebuild_receiver d.tracer_receivers) tracer_receivers;
  Option.iter
    (fun spec ->
      Array.iteri
        (fun site (_, node) ->
          rebuild node (fun () ->
              d.populations.(site) <- population ~rng:fault_rng spec site;
              start_population d.populations.(site)))
        populations)
    site_population;
  d

let standard ?(cfg = Lbrm.Config.default) ?(seed = 42) ?(replica_count = 0)
    ?initial_estimate ?tail_loss ?on_deliver ?on_notice ?on_source_notice
    ?(logging = `Distributed) ?sink ?site_population ?mcast_cache
    ?(archive = false) ~sites ~receivers_per_site () =
  assert (sites > 0 && receivers_per_site >= 0);
  build ~cfg ~seed ~replica_count ?initial_estimate ?tail_loss ?on_deliver
    ?on_notice ?on_source_notice ~logging ?sink ?site_population ?mcast_cache
    ~archive ~sites ~receivers_per_site ()

(* A three-level logger hierarchy (the paper's §7 "multi-level hierarchy
   of logging servers" future-work item): receivers NACK their site
   secondary, secondaries NACK a regional logger, regionals NACK the
   primary.  Regions are consecutive runs of [sites_per_region] sites. *)
let hierarchical ?(cfg = Lbrm.Config.default) ?(seed = 42) ?initial_estimate
    ?tail_loss ?on_deliver ?on_notice ?sink ~regions ~sites_per_region
    ~receivers_per_site () =
  assert (regions > 0 && sites_per_region > 0 && receivers_per_site >= 0);
  build ~cfg ~seed ~replica_count:0 ?initial_estimate ?tail_loss ?on_deliver
    ?on_notice ~logging:`Distributed ?sink ~archive:false ~sites_per_region
    ~sites:(regions * sites_per_region) ~receivers_per_site ()

let schedule_faults ?(on_crash = fun _ -> ()) ?(on_restart = fun _ -> ()) d
    events =
  Lbrm_sim.Fault.apply
    ~engine:(Sim_runtime.engine d.runtime)
    ~topo:d.wan.Builders.topo
    ~on_crash:(fun node ->
      Sim_runtime.crash d.runtime ~node;
      on_crash node)
    ~on_restart:(fun node ->
      (match Hashtbl.find_opt d.rebuilders node with
      | Some rebuild -> rebuild ()
      | None -> ());
      on_restart node)
    events

let site_receivers d ~site =
  let hosts = d.wan.sites.(site).Builders.hosts in
  Array.to_list d.receivers
  |> List.filter (fun (_, node) -> Array.exists (fun h -> h = node) hosts)

let send d payload =
  let now = Sim_runtime.now d.runtime in
  Sim_runtime.perform d.runtime ~node:d.source_node
    (Lbrm.Source.send d.source ~now payload)

let payload_of_size n i =
  let base = Printf.sprintf "packet-%d:" i in
  let pad = Stdlib.max 0 (n - String.length base) in
  base ^ String.make pad 'x'

let drive_periodic d ~interval ~count ?(payload_size = 128) () =
  let engine = Sim_runtime.engine d.runtime in
  for i = 1 to count do
    ignore
      (Engine.schedule_kind engine ~kind:Engine.kind_app ~delay:(interval *. float_of_int i) (fun () ->
           send d (payload_of_size payload_size i)))
  done

let drive_poisson d ~mean_interval ~until ?(payload_size = 128) () =
  let engine = Sim_runtime.engine d.runtime in
  let rng = Rng.split (Engine.rng engine) in
  let counter = ref 0 in
  let rec arm () =
    let delay = Rng.exponential rng ~mean:mean_interval in
    ignore
      (Engine.schedule_kind engine ~kind:Engine.kind_app ~delay (fun () ->
           if Engine.now engine <= until then begin
             incr counter;
             send d (payload_of_size payload_size !counter);
             arm ()
           end))
  in
  arm ()

let run d ~until = Sim_runtime.run ~until d.runtime
let metrics d = Sim_runtime.metrics d.runtime

let delivered_everywhere d seq =
  let seen_at (_, node) =
    match Hashtbl.find_opt d.delivered node with
    | Some seen -> Hashtbl.mem seen seq
    | None -> false
  in
  Array.for_all seen_at d.receivers
  && Array.for_all seen_at d.tracer_receivers
  && Array.for_all
       (fun (p, _) ->
         Site_population.is_fully_delivered (Population.model p) ~seq)
       d.populations

let total_missing d =
  let individual =
    Array.fold_left
      (fun acc (r, _) -> acc + List.length (Lbrm.Receiver.missing r))
      0 d.receivers
  in
  let tracer =
    Array.fold_left
      (fun acc (r, _) -> acc + List.length (Lbrm.Receiver.missing r))
      0 d.tracer_receivers
  in
  let aggregate =
    Array.fold_left
      (fun acc (p, _) -> acc + Population.missing p)
      0 d.populations
  in
  individual + tracer + aggregate

(* Fold the disk tier's counters into the deployment's experiment
   metrics: "archive.read" counts retransmissions the currently
   installed loggers served from disk; the "archive.rotations" /
   "archive.compactions" / "archive.segments" family tracks segment
   lifecycle across the live archive handles. *)
let record_archive_stats d =
  let add name n =
    if n > 0 then Metrics.add (Metrics.counter (metrics d) name) n
  in
  let loggers =
    (d.primary :: List.map fst d.replicas)
    @ Array.to_list (Array.map fst d.secondaries)
    @ List.map fst d.regionals
  in
  List.iter (fun l -> add "archive.read" (Lbrm.Logger.archive_reads l)) loggers;
  Hashtbl.fold (fun node a acc -> (node, a) :: acc) d.archives []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, a) ->
         add "archive.rotations" (Lbrm.Archive.rotations a);
         add "archive.compactions" (Lbrm.Archive.compactions a);
         add "archive.segments" (List.length (Lbrm.Archive.segments a)))
