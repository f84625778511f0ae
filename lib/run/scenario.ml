module Builders = Lbrm_sim.Builders
module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Trace = Lbrm_sim.Trace
module Site_population = Lbrm_sim.Site_population
module Message = Lbrm_wire.Message
module Rng = Lbrm_util.Rng

type node_id = Lbrm_sim.Topo.node_id

type population_spec = { members : int; tracers : int; lan_loss : float }

let population_spec ?(tracers = 2) ?(lan_loss = 0.005) ~members () =
  assert (members >= 1 && tracers >= 0 && tracers <= members);
  { members; tracers; lan_loss }

type deployment = {
  runtime : Sim_runtime.t;
  wan : Builders.wan;
  cfg : Lbrm.Config.t;
  mutable source : Lbrm.Source.t;
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
  regionals : (Lbrm.Logger.t * node_id) list;
  (* per-receiver delivered seqs, for completeness checks *)
  delivered : (node_id, (int, unit) Hashtbl.t) Hashtbl.t;
  (* node -> fresh-machine factory, run when a crashed node restarts *)
  rebuilders : (node_id, unit -> unit) Hashtbl.t;
  (* node -> the archive handle its logger currently serves from (only
     with ~archive:true; rebuilt handles replace crashed ones, the
     backing in-memory fs survives the crash like a disk would) *)
  archives : (node_id, Lbrm.Archive.t) Hashtbl.t;
}

let standard ?(cfg = Lbrm.Config.default) ?(seed = 42) ?(replica_count = 0)
    ?initial_estimate ?backbone_delay ?tail_loss ?on_deliver ?on_notice
    ?on_source_notice ?(logging = `Distributed) ?sink
    ?site_population ?mcast_cache ?(archive = false) ~sites
    ~receivers_per_site () =
  assert (sites > 0 && receivers_per_site >= 0);
  let delivered_table = Hashtbl.create 64 in
  let reserved = 3 + replica_count in
  (* Populated sites append one aggregate-population host plus its
     tracer hosts after the individual receivers. *)
  let pop_base = reserved + receivers_per_site in
  let pop_hosts =
    match site_population with None -> 0 | Some s -> 1 + s.tracers
  in
  let wan =
    Builders.dis_wan ?backbone_delay ~sites
      ~hosts_per_site:(pop_base + pop_hosts) ()
  in
  (match tail_loss with
  | None -> ()
  | Some f ->
      Array.iteri
        (fun i site ->
          Lbrm_sim.Topo.set_link_loss site.Builders.tail_down (f i))
        wan.sites);
  let engine = Engine.create ~seed () in
  let net =
    Net.create ?mcast_cache_size:mcast_cache ~engine ~topo:wan.topo
      ~size_of:Message.wire_size ()
  in
  let trace = Trace.create () in
  let runtime = Sim_runtime.create ~net ~trace () in
  let rng = Rng.split (Engine.rng engine) in
  let source_node = Builders.host wan ~site:0 1 in
  let primary_node = Builders.host wan ~site:0 2 in
  let replica_nodes =
    List.init replica_count (fun i -> Builders.host wan ~site:0 (3 + i))
  in
  let source =
    Lbrm.Source.create cfg ~self:source_node ~primary:primary_node
      ~replicas:replica_nodes ?initial_estimate ?sink ()
  in
  (* Disk tiers: one persistent in-memory fs per log host.  The fs
     outlives the logger machine — a crash loses the machine (and its
     in-memory store) but not the "disk", exactly as a restart would
     find real files — so the rebuilder's reopen recovers segments,
     index and low-water mark from what was durably written. *)
  let archive_fs : (node_id, Lbrm.Archive.fs) Hashtbl.t = Hashtbl.create 8 in
  let archive_handles : (node_id, Lbrm.Archive.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let make_archive node =
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
          Hashtbl.replace archive_handles node a;
          Some a
      | Error e -> failwith (Printf.sprintf "archive open (node %d): %s" node e)
  in
  (* Under ring replication the log hosts form an ordered chain
     head -> replica_1 -> ... -> replica_n (tail); each member knows only
     its successor.  Under primary/quorum there is no chain. *)
  let ring_succ node =
    match cfg.Lbrm.Config.replication with
    | Lbrm.Config.R_ring ->
        let rec next = function
          | a :: b :: _ when a = node -> Some b
          | _ :: rest -> next rest
          | [] -> None
        in
        next (primary_node :: replica_nodes)
    | Lbrm.Config.R_primary | Lbrm.Config.R_quorum -> None
  in
  let primary =
    Lbrm.Logger.create cfg ~self:primary_node ~source:source_node
      ~replicas:replica_nodes
      ?succ:(ring_succ primary_node)
      ?archive:(make_archive primary_node)
      ~rng:(Rng.split rng) ?sink ()
  in
  let replicas =
    List.map
      (fun node ->
        ( Lbrm.Logger.create cfg ~self:node ~source:source_node
            ~parent:primary_node
            ?succ:(ring_succ node)
            ?archive:(make_archive node)
            ~rng:(Rng.split rng) ?sink (),
          node ))
      replica_nodes
  in
  let secondaries =
    match logging with
    | `Centralized -> [||]
    | `Distributed ->
        Array.map
          (fun site ->
            let node = site.Builders.hosts.(0) in
            ( Lbrm.Logger.create cfg ~self:node ~source:source_node
                ~parent:primary_node
                ?archive:(make_archive node)
                ~rng:(Rng.split rng) ?sink (),
              node ))
          wan.sites
  in
  let receivers =
    Array.of_list
      (List.concat
         (List.mapi
            (fun site_idx site ->
              let hierarchy =
                match logging with
                | `Centralized -> [ primary_node ]
                | `Distributed ->
                    [ site.Builders.hosts.(0); primary_node ]
              in
              List.init receivers_per_site (fun j ->
                  let node = site.Builders.hosts.(reserved + j) in
                  let r =
                    Lbrm.Receiver.create ?sink cfg ~self:node
                      ~source:source_node ~loggers:hierarchy
                  in
                  ignore site_idx;
                  (r, node)))
            (Array.to_list wan.sites)))
  in
  let site_hierarchy site =
    match logging with
    | `Centralized -> [ primary_node ]
    | `Distributed -> [ site.Builders.hosts.(0); primary_node ]
  in
  let tracer_nodes_of site spec =
    Array.init spec.tracers (fun j -> site.Builders.hosts.(pop_base + 1 + j))
  in
  (* Aggregate populations: one protocol agent per site standing in for
     [members] receivers, plus [tracers] real cross-check receivers fed
     via Sim_runtime.inject with exactly the loss outcomes the model
     sampled for them.  All Rng splits here are guarded by the option so
     population-free deployments stay bit-identical to before. *)
  let populations, tracer_receivers =
    match site_population with
    | None -> ([||], [||])
    | Some spec ->
        let rows =
          List.init sites (fun site_idx ->
              let site = wan.sites.(site_idx) in
              let node = site.Builders.hosts.(pop_base) in
              let tracer_nodes = tracer_nodes_of site spec in
              let hierarchy = site_hierarchy site in
              let model =
                Site_population.create ~tracers:spec.tracers
                  ~size:spec.members ~lan_loss:spec.lan_loss
                  ~rng:(Rng.split rng) ()
              in
              let p =
                Population.create ?sink ~cfg ~self:node ~source:source_node
                  ~loggers:hierarchy ~model
                  ~on_feed:(fun ~tracer ~now:_ ~src msg ->
                    Sim_runtime.inject runtime ~node:tracer_nodes.(tracer)
                      ~src msg)
                  ()
              in
              let ts =
                Array.to_list
                  (Array.map
                     (fun tnode ->
                       ( Lbrm.Receiver.create ?sink cfg ~self:tnode
                           ~source:source_node ~loggers:hierarchy,
                         tnode ))
                     tracer_nodes)
              in
              ((p, node), ts))
        in
        ( Array.of_list (List.map fst rows),
          Array.of_list (List.concat_map snd rows) )
  in
  (* Install agents. *)
  Sim_runtime.add_agent runtime ~node:source_node
    (Handlers.of_source ?on_notice:on_source_notice source);
  Sim_runtime.add_agent runtime ~node:primary_node (Handlers.of_logger primary);
  List.iter
    (fun (l, node) -> Sim_runtime.add_agent runtime ~node (Handlers.of_logger l))
    replicas;
  Array.iter
    (fun (l, node) -> Sim_runtime.add_agent runtime ~node (Handlers.of_logger l))
    secondaries;
  Array.iter
    (fun (r, node) ->
      let seen = Hashtbl.create 64 in
      Hashtbl.replace delivered_table node seen;
      let deliver ~now ~seq ~payload ~recovered =
        Hashtbl.replace seen seq ();
        match on_deliver with
        | Some f -> f node ~now ~seq ~payload ~recovered
        | None -> ()
      in
      let notice =
        Option.map (fun f ~now n -> f node ~now n) on_notice
      in
      Sim_runtime.add_agent runtime ~node
        (Handlers.of_receiver ~on_deliver:deliver ?on_notice:notice r))
    receivers;
  Array.iter
    (fun (p, node) ->
      let notice = Option.map (fun f ~now n -> f node ~now n) on_notice in
      Sim_runtime.add_agent runtime ~node (Population.handlers ?on_notice:notice p))
    populations;
  Array.iter
    (fun (r, node) ->
      let seen = Hashtbl.create 64 in
      Hashtbl.replace delivered_table node seen;
      let deliver ~now ~seq ~payload ~recovered =
        Hashtbl.replace seen seq ();
        match on_deliver with
        | Some f -> f node ~now ~seq ~payload ~recovered
        | None -> ()
      in
      let notice = Option.map (fun f ~now n -> f node ~now n) on_notice in
      Sim_runtime.add_agent runtime ~node
        (Handlers.of_receiver ~on_deliver:deliver ?on_notice:notice r))
    tracer_receivers;
  (* Group membership: loggers and receivers listen on the data group;
     loggers answer discovery.  Population agents listen on the data
     group for their whole site; tracer receivers join nothing — they
     see multicast traffic only through the population's sampled feed. *)
  let join_data node = Sim_runtime.join runtime ~group:cfg.group ~node in
  let join_disc node =
    Sim_runtime.join runtime ~group:cfg.discovery_group ~node
  in
  join_data primary_node;
  join_disc primary_node;
  List.iter
    (fun (_, node) ->
      join_data node;
      join_disc node)
    replicas;
  Array.iter
    (fun (_, node) ->
      join_data node;
      join_disc node)
    secondaries;
  Array.iter (fun (_, node) -> join_data node) receivers;
  Array.iter (fun (_, node) -> join_data node) populations;
  (* Kick everything off. *)
  let now = Engine.now engine in
  Sim_runtime.perform runtime ~node:source_node
    (Lbrm.Source.start source ~now);
  Array.iter
    (fun (r, node) ->
      Sim_runtime.perform runtime ~node (Lbrm.Receiver.start r ~now))
    receivers;
  Array.iter
    (fun (p, node) ->
      Sim_runtime.perform runtime ~node (Population.start p ~now))
    populations;
  Array.iter
    (fun (r, node) ->
      Sim_runtime.perform runtime ~node (Lbrm.Receiver.start r ~now))
    tracer_receivers;
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
      regionals = [];
      delivered = delivered_table;
      rebuilders = Hashtbl.create 16;
      archives = archive_handles;
    }
  in
  (* Restart factories.  A restarted process has no soft state, so every
     rebuilder creates the state machine from scratch — empty log store,
     fresh discovery — and re-homes it on whoever the source currently
     considers primary (fail-over may have moved the role while the node
     was down).  [fault_rng] is split after all existing streams so that
     deployments that never crash are bit-identical to before. *)
  let fault_rng = Rng.split rng in
  let current_primary () = Lbrm.Source.primary d.source in
  let logger_rebuilder node update =
    Hashtbl.replace d.rebuilders node (fun () ->
        let current = current_primary () in
        let l =
          if current = node then
            (* Restarted while still (or again) the primary: resume the
               role, with the other log hosts as its replicas (and, under
               ring replication, its original successor). *)
            let others =
              List.filter (fun n -> n <> node) (primary_node :: replica_nodes)
            in
            Lbrm.Logger.create cfg ~self:node ~source:source_node
              ~replicas:others
              ?succ:(ring_succ node)
              ?archive:(make_archive node)
              ~rng:(Rng.split fault_rng) ?sink ()
          else
            (* A demoted ring/quorum member returns as a plain secondary
               of whoever now heads the replica set; a later Ring_set can
               splice it back into a chain. *)
            Lbrm.Logger.create cfg ~self:node ~source:source_node
              ~parent:current
              ?archive:(make_archive node)
              ~rng:(Rng.split fault_rng) ?sink ()
        in
        update l;
        Sim_runtime.replace_agent runtime ~node (Handlers.of_logger l))
  in
  logger_rebuilder primary_node (fun l -> d.primary <- l);
  List.iter
    (fun (_, node) ->
      logger_rebuilder node (fun l ->
          d.replicas <-
            List.map
              (fun (l0, n) -> if n = node then (l, n) else (l0, n))
              d.replicas))
    replicas;
  Array.iteri
    (fun i (_, node) ->
      logger_rebuilder node (fun l -> d.secondaries.(i) <- (l, node)))
    secondaries;
  Array.iteri
    (fun i (_, node) ->
      let site_secondary =
        match logging with
        | `Centralized -> None
        | `Distributed ->
            let found = ref None in
            Array.iter
              (fun site ->
                if Array.exists (fun h -> h = node) site.Builders.hosts then
                  found := Some site.Builders.hosts.(0))
              wan.sites;
            !found
      in
      Hashtbl.replace d.rebuilders node (fun () ->
          let hierarchy =
            match site_secondary with
            | None -> [ current_primary () ]
            | Some s -> [ s; current_primary () ]
          in
          let r =
            Lbrm.Receiver.create ?sink cfg ~self:node ~source:source_node
              ~loggers:hierarchy
          in
          d.receivers.(i) <- (r, node);
          let seen = Hashtbl.find delivered_table node in
          let deliver ~now ~seq ~payload ~recovered =
            Hashtbl.replace seen seq ();
            match on_deliver with
            | Some f -> f node ~now ~seq ~payload ~recovered
            | None -> ()
          in
          let notice = Option.map (fun f ~now n -> f node ~now n) on_notice in
          Sim_runtime.replace_agent runtime ~node
            (Handlers.of_receiver ~on_deliver:deliver ?on_notice:notice r);
          Sim_runtime.perform runtime ~node
            (Lbrm.Receiver.start r ~now:(Sim_runtime.now runtime))))
    receivers;
  (match site_population with
  | None -> ()
  | Some spec ->
      (* A restarted population rejoins from scratch: fresh model (the
         crashed process's aggregate state is soft), fresh tracers. *)
      Array.iteri
        (fun site_idx (_, node) ->
          let site = wan.sites.(site_idx) in
          let tracer_nodes = tracer_nodes_of site spec in
          Hashtbl.replace d.rebuilders node (fun () ->
              let hierarchy =
                match logging with
                | `Centralized -> [ current_primary () ]
                | `Distributed ->
                    [ site.Builders.hosts.(0); current_primary () ]
              in
              let model =
                Site_population.create ~tracers:spec.tracers
                  ~size:spec.members ~lan_loss:spec.lan_loss
                  ~rng:(Rng.split fault_rng) ()
              in
              let p =
                Population.create ?sink ~cfg ~self:node ~source:source_node
                  ~loggers:hierarchy ~model
                  ~on_feed:(fun ~tracer ~now:_ ~src msg ->
                    Sim_runtime.inject runtime ~node:tracer_nodes.(tracer)
                      ~src msg)
                  ()
              in
              d.populations.(site_idx) <- (p, node);
              let notice =
                Option.map (fun f ~now n -> f node ~now n) on_notice
              in
              Sim_runtime.replace_agent runtime ~node
                (Population.handlers ?on_notice:notice p);
              Sim_runtime.perform runtime ~node
                (Population.start p ~now:(Sim_runtime.now runtime))))
        populations;
      Array.iteri
        (fun i (_, node) ->
          let site = wan.sites.(i / Stdlib.max 1 spec.tracers) in
          Hashtbl.replace d.rebuilders node (fun () ->
              let hierarchy =
                match logging with
                | `Centralized -> [ current_primary () ]
                | `Distributed ->
                    [ site.Builders.hosts.(0); current_primary () ]
              in
              let r =
                Lbrm.Receiver.create ?sink cfg ~self:node
                  ~source:source_node ~loggers:hierarchy
              in
              d.tracer_receivers.(i) <- (r, node);
              let seen = Hashtbl.find delivered_table node in
              let deliver ~now ~seq ~payload ~recovered =
                Hashtbl.replace seen seq ();
                match on_deliver with
                | Some f -> f node ~now ~seq ~payload ~recovered
                | None -> ()
              in
              let notice =
                Option.map (fun f ~now n -> f node ~now n) on_notice
              in
              Sim_runtime.replace_agent runtime ~node
                (Handlers.of_receiver ~on_deliver:deliver ?on_notice:notice r);
              Sim_runtime.perform runtime ~node
                (Lbrm.Receiver.start r ~now:(Sim_runtime.now runtime))))
        tracer_receivers);
  d

let crash d ~node =
  Lbrm_sim.Topo.set_node_up d.wan.Builders.topo node false;
  Sim_runtime.crash d.runtime ~node

let restart d ~node =
  Lbrm_sim.Topo.set_node_up d.wan.Builders.topo node true;
  match Hashtbl.find_opt d.rebuilders node with
  | Some rebuild -> rebuild ()
  | None -> ()

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
let trace d = Sim_runtime.trace d.runtime

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
  let tr = Sim_runtime.trace d.runtime in
  let add name n = if n > 0 then Trace.incr ~by:n tr name in
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

(* A three-level logger hierarchy (the paper's Â§7 "multi-level hierarchy
   of logging servers" future-work item): receivers NACK their site
   secondary, secondaries NACK a regional logger, regionals NACK the
   primary.  Regions are consecutive runs of [sites_per_region] sites;
   each region's regional logger lives on host 3 of its first site. *)
let hierarchical ?(cfg = Lbrm.Config.default) ?(seed = 42) ?initial_estimate
    ?tail_loss ?on_deliver ?on_notice ?sink ~regions
    ~sites_per_region ~receivers_per_site () =
  assert (regions > 0 && sites_per_region > 0 && receivers_per_site >= 0);
  let sites = regions * sites_per_region in
  let delivered_table = Hashtbl.create 64 in
  let reserved = 4 in
  let wan =
    Builders.dis_wan ~sites ~hosts_per_site:(reserved + receivers_per_site) ()
  in
  (match tail_loss with
  | None -> ()
  | Some f ->
      Array.iteri
        (fun i site -> Lbrm_sim.Topo.set_link_loss site.Builders.tail_down (f i))
        wan.sites);
  let engine = Engine.create ~seed () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of:Message.wire_size () in
  let trace = Trace.create () in
  let runtime = Sim_runtime.create ~net ~trace () in
  let rng = Rng.split (Engine.rng engine) in
  let source_node = Builders.host wan ~site:0 1 in
  let primary_node = Builders.host wan ~site:0 2 in
  let source =
    Lbrm.Source.create cfg ~self:source_node ~primary:primary_node
      ?initial_estimate ?sink ()
  in
  let primary =
    Lbrm.Logger.create cfg ~self:primary_node ~source:source_node
      ~rng:(Rng.split rng) ?sink ()
  in
  let region_of site = site / sites_per_region in
  let regional_node r = Builders.host wan ~site:(r * sites_per_region) 3 in
  let regionals =
    List.init regions (fun r ->
        ( Lbrm.Logger.create cfg ~self:(regional_node r) ~source:source_node
            ~parent:primary_node ~rng:(Rng.split rng) ?sink (),
          regional_node r ))
  in
  let secondaries =
    Array.mapi
      (fun i site ->
        let node = site.Builders.hosts.(0) in
        ( Lbrm.Logger.create cfg ~self:node ~source:source_node
            ~parent:(regional_node (region_of i))
            ~rng:(Rng.split rng) ?sink (),
          node ))
      wan.sites
  in
  let receivers =
    Array.of_list
      (List.concat
         (List.mapi
            (fun site_idx site ->
              let hierarchy =
                [
                  site.Builders.hosts.(0);
                  regional_node (region_of site_idx);
                  primary_node;
                ]
              in
              List.init receivers_per_site (fun j ->
                  let node = site.Builders.hosts.(reserved + j) in
                  ( Lbrm.Receiver.create ?sink cfg ~self:node
                      ~source:source_node ~loggers:hierarchy,
                    node )))
            (Array.to_list wan.sites)))
  in
  Sim_runtime.add_agent runtime ~node:source_node (Handlers.of_source source);
  Sim_runtime.add_agent runtime ~node:primary_node (Handlers.of_logger primary);
  List.iter
    (fun (l, node) -> Sim_runtime.add_agent runtime ~node (Handlers.of_logger l))
    regionals;
  Array.iter
    (fun (l, node) -> Sim_runtime.add_agent runtime ~node (Handlers.of_logger l))
    secondaries;
  Array.iter
    (fun (r, node) ->
      let seen = Hashtbl.create 64 in
      Hashtbl.replace delivered_table node seen;
      let deliver ~now ~seq ~payload ~recovered =
        Hashtbl.replace seen seq ();
        match on_deliver with
        | Some f -> f node ~now ~seq ~payload ~recovered
        | None -> ()
      in
      let notice = Option.map (fun f ~now n -> f node ~now n) on_notice in
      Sim_runtime.add_agent runtime ~node
        (Handlers.of_receiver ~on_deliver:deliver ?on_notice:notice r))
    receivers;
  let join_data node = Sim_runtime.join runtime ~group:cfg.group ~node in
  let join_disc node =
    Sim_runtime.join runtime ~group:cfg.discovery_group ~node
  in
  join_data primary_node;
  join_disc primary_node;
  List.iter
    (fun (_, node) ->
      join_data node;
      join_disc node)
    regionals;
  Array.iter
    (fun (_, node) ->
      join_data node;
      join_disc node)
    secondaries;
  Array.iter (fun (_, node) -> join_data node) receivers;
  let now = Engine.now engine in
  Sim_runtime.perform runtime ~node:source_node (Lbrm.Source.start source ~now);
  Array.iter
    (fun (r, node) ->
      Sim_runtime.perform runtime ~node (Lbrm.Receiver.start r ~now))
    receivers;
  {
    runtime;
    wan;
    cfg;
    source;
    source_node;
    primary;
    primary_node;
    replicas = [];
    secondaries;
    receivers;
    populations = [||];
    tracer_receivers = [||];
    regionals;
    delivered = delivered_table;
    (* no restart support in the hierarchical builder (yet): restarted
       nodes come back up silent *)
    rebuilders = Hashtbl.create 1;
    archives = Hashtbl.create 1;
  }
