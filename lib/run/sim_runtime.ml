module Net = Lbrm_sim.Net
module Engine = Lbrm_sim.Engine
module Trace = Lbrm_sim.Trace

type t = {
  net : Lbrm_wire.Message.t Net.t;
  trace : Trace.t;
  meter : Agent_host.meter;
  host : Lbrm_sim.Topo.node_id Agent_host.t;
}

let host net ~wrap =
  Agent_host.create
    {
      engine = Net.engine net;
      unicast =
        (fun src ~dst msg ->
          Net.unicast net ~src ~dst (wrap msg);
          1);
      multicast =
        (fun src ~group ~ttl msg ->
          Net.multicast net ?ttl ~src ~group (wrap msg);
          1);
      join = (fun ~group node -> Net.join net ~group node);
      leave = (fun ~group node -> Net.leave net ~group node);
    }

let create ~net ~trace () =
  {
    net;
    trace;
    meter = Agent_host.meter trace;
    host = host net ~wrap:Fun.id;
  }

let net t = t.net
let engine t = Net.engine t.net
let trace t = t.trace
let now t = Engine.now (engine t)
let join t ~group ~node = Net.join t.net ~group node

let install t node agent =
  Net.set_handler t.net node (fun ~src msg ->
      Agent_host.receive t.host agent ~now:(now t) ~src msg)

let add_agent t ~node handlers =
  install t node (Agent_host.add t.host node node t.meter handlers)

let replace_agent t ~node handlers =
  Agent_host.remove t.host node;
  add_agent t ~node handlers

let perform t ~node out = Agent_host.perform t.host node out

let inject t ~node ~src msg =
  Agent_host.dispatch t.host node ~now:(now t) ~src msg

let crash t ~node = Agent_host.crash t.host node
let run ?until t = Engine.run ?until (engine t)
