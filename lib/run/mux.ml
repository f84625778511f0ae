module Net = Lbrm_sim.Net
module Engine = Lbrm_sim.Engine
module Message = Lbrm_wire.Message
module Codec = Lbrm_wire.Codec

type envelope = { flow : int; msg : Message.t }

let wire_size e = 4 + Message.wire_size e.msg

(* One exactly-sized buffer: the flow prefix, then the message written
   in place after it. *)
let encode e =
  let buf = Bytes.create (4 + Message.body_size e.msg) in
  let w = Codec.Writer.wrap buf in
  Codec.Writer.u32 w e.flow;
  match Codec.encode_at_exn w buf ~pos:4 ~limit:(Bytes.length buf) e.msg with
  | _ -> Ok (Bytes.unsafe_to_string buf)
  | exception Codec.Malformed err -> Error err

let decode s =
  if String.length s < 4 then Error Codec.Truncated
  else
    let r = Codec.Reader.create s in
    match Codec.Reader.u32 r with
    | Error e -> Error e
    | Ok flow -> (
        (* Parse the message in place after the flow prefix — no
           substring copy; payloads are views over [s]. *)
        match Codec.decode ~pos:4 s with
        | Ok msg -> Ok { flow; msg }
        | Error e -> Error e)

type t = {
  net : envelope Net.t;
  metrics : Lbrm_util.Metrics.t;
  meter : Agent_host.meter;
  (* flow -> the host running that flow's sub-agents *)
  flows : (int, Lbrm_sim.Topo.node_id Agent_host.t) Hashtbl.t;
}

let create ~engine ~topo ~metrics =
  {
    net = Net.create ~engine ~topo ~size_of:wire_size ();
    metrics;
    meter = Agent_host.meter metrics;
    flows = Hashtbl.create 16;
  }

let net t = t.net
let engine t = Net.engine t.net
let metrics t = t.metrics
let now t = Engine.now (engine t)
let join t ~group ~node = Net.join t.net ~group node

let dispatch t node ~src (env : envelope) =
  match Hashtbl.find_opt t.flows env.flow with
  | Some host -> Agent_host.dispatch host node ~now:(now t) ~src env.msg
  | None -> () (* no such flow *)

let flow_host t flow =
  match Hashtbl.find_opt t.flows flow with
  | Some host -> host
  | None ->
      let host =
        Sim_runtime.host t.net ~wrap:(fun msg -> { flow; msg })
      in
      Hashtbl.replace t.flows flow host;
      host

let attach t ~node ~flow handlers =
  ignore (Agent_host.add (flow_host t flow) node node t.meter handlers);
  (* One handler per host serves all its flows; re-setting it is a no-op. *)
  Net.set_handler t.net node (fun ~src env -> dispatch t node ~src env)

let perform t ~node ~flow out =
  match Hashtbl.find_opt t.flows flow with
  | Some host -> Agent_host.perform host node out
  | None -> Lbrm.Io.discard out

let run ?until t = Engine.run ?until (engine t)
