(* Fine-grained multicast groups, "each containing a single data
   source" (§1) — the setting LBRM was designed for.

   Eight terrain entities each own a flow (their own multicast group and
   sequence space), multiplexed over one simulated WAN with
   Lbrm_run.Mux.  A single logging process per site serves as secondary
   logger for *every* flow, and the process at the source site is
   simultaneously the primary logger of all eight — the paper's
   §2.2.1 footnote in action.

   Run with: dune exec examples/multi_source.exe *)

module Mux = Lbrm_run.Mux
module H = Lbrm_run.Handlers
module Engine = Lbrm_sim.Engine
module Builders = Lbrm_sim.Builders
module Topo = Lbrm_sim.Topo
module Loss = Lbrm_sim.Loss
module Metrics = Lbrm_util.Metrics
module Rng = Lbrm_util.Rng
module Pdu = Lbrm_dis.Pdu
module Entity = Lbrm_dis.Entity

let flows = 8
let sites = 3
let receivers_per_site = 2

let () =
  Printf.printf
    "Fine-grained groups: %d terrain entities, one LBRM flow each, one\n\
     logging process per site serving all flows; 15%% tail loss.\n\n"
    flows;
  let wan = Builders.dis_wan ~sites ~hosts_per_site:4 () in
  Array.iter
    (fun site -> Topo.set_link_loss site.Builders.tail_down (Loss.bernoulli 0.15))
    wan.sites;
  let engine = Engine.create ~seed:101 () in
  let metrics = Metrics.create () in
  let mux = Mux.create ~engine ~topo:wan.topo ~metrics in
  let rng = Rng.create ~seed:11 in
  let primary_node = Builders.host wan ~site:0 2 in
  let logger_node site = wan.sites.(site).Builders.hosts.(0) in
  let cfg_of flow =
    {
      Lbrm.Config.default with
      stat_ack_enabled = false;
      group = 2 * flow;
      discovery_group = (2 * flow) + 1;
    }
  in
  (* Every flow: source at site 0 host 1, primary on the shared primary
     node, one secondary per site (the shared per-site logger process),
     receivers everywhere. *)
  let sources =
    List.init flows (fun i ->
        let flow = i + 1 in
        let cfg = cfg_of flow in
        let src_node = Builders.host wan ~site:0 1 in
        let source =
          Lbrm.Source.create cfg ~self:src_node ~primary:primary_node ()
        in
        Mux.attach mux ~node:src_node ~flow (H.of_source source);
        let primary =
          Lbrm.Logger.create cfg ~self:primary_node ~source:src_node
            ~rng:(Rng.split rng) ()
        in
        Mux.attach mux ~node:primary_node ~flow (H.of_logger primary);
        Mux.join mux ~group:cfg.group ~node:primary_node;
        for site = 0 to sites - 1 do
          let node = logger_node site in
          if node <> primary_node then begin
            let secondary =
              Lbrm.Logger.create cfg ~self:node ~source:src_node
                ~parent:primary_node ~rng:(Rng.split rng) ()
            in
            Mux.attach mux ~node ~flow (H.of_logger secondary);
            Mux.join mux ~group:cfg.group ~node
          end
        done;
        let receivers =
          List.concat
            (List.init sites (fun site ->
                 List.init receivers_per_site (fun j ->
                     let node = wan.sites.(site).Builders.hosts.(2 + j) in
                     if node = primary_node then None
                     else begin
                       let r =
                         Lbrm.Receiver.create cfg ~self:node ~source:src_node
                           ~loggers:[ logger_node site; primary_node ]
                       in
                       Mux.attach mux ~node ~flow (H.of_receiver r);
                       Mux.join mux ~group:cfg.group ~node;
                       Mux.perform mux ~node ~flow (Lbrm.Receiver.start r ~now:0.);
                       Some (r, node)
                     end)
                 |> List.filter_map Fun.id))
        in
        Mux.perform mux ~node:src_node ~flow (Lbrm.Source.start source ~now:0.);
        (flow, src_node, source, receivers))
  in
  (* Each entity changes state at its own Poisson times. *)
  let updates = ref 0 in
  List.iter
    (fun (flow, src_node, source, _) ->
      let frng = Rng.split rng in
      let rec arm after =
        let at = after +. Rng.exponential frng ~mean:20. in
        if at < 120. then
          ignore
            (Engine.at engine ~time:at (fun () ->
                 incr updates;
                 let pdu =
                   Pdu.encode
                     (Pdu.Terrain_update
                        {
                          id = flow;
                          appearance = Entity.Appearance.damaged;
                          timestamp = at;
                        })
                 in
                 Mux.perform mux ~node:src_node ~flow
                   (Lbrm.Source.send source ~now:(Engine.now engine) pdu);
                 arm at))
      in
      arm 0.)
    sources;
  Mux.run ~until:300. mux;

  Printf.printf "entity state changes multicast : %d (across %d flows)\n"
    !updates flows;
  let complete = ref true in
  List.iter
    (fun (flow, _, source, receivers) ->
      let want = Lbrm.Source.last_seq source in
      List.iter
        (fun (r, _) ->
          if Lbrm.Receiver.delivered r <> want then begin
            complete := false;
            Printf.printf "flow %d: a receiver has %d/%d\n" flow
              (Lbrm.Receiver.delivered r) want
          end)
        receivers)
    sources;
  Printf.printf "flows fully delivered          : %s\n"
    (if !complete then "all" else "NOT ALL");
  Printf.printf "repairs served                 : %d\n"
    (Metrics.count metrics "loss.recovered");
  Printf.printf "NACKs sent                     : %d\n"
    (Metrics.count metrics "sent.nack");
  if !complete then
    print_endline
      "\nOK: per-entity groups, shared per-site logging processes."
  else begin
    print_endline "\nFAILED.";
    exit 1
  end
