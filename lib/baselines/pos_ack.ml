module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Trace = Lbrm_sim.Trace
module Topo = Lbrm_sim.Topo

type msg =
  | Data of { seq : int; payload : string }
  | Ack of { seq : int; receiver : Topo.node_id }
  | Retrans of { seq : int; payload : string }

let size_of = function
  | Data { payload; _ } -> 28 + 1 + 4 + 4 + String.length payload
  | Ack _ -> 28 + 1 + 4 + 4
  | Retrans { payload; _ } -> 28 + 1 + 4 + 4 + String.length payload

type config = { rto : float; max_retries : int }

let default_config = { rto = 0.5; max_retries = 5 }

type pending = {
  payload : string;
  sent_at : float;
  missing : (Topo.node_id, unit) Hashtbl.t;
  mutable retries : int;
}

type t = {
  net : msg Net.t;
  trace : Trace.t;
  cfg : config;
  group : int;
  source : Topo.node_id;
  receivers : Topo.node_id list;
  mutable next_seq : int;
  pending : (int, pending) Hashtbl.t;
  mutable acks : int;
}

let engine t = Net.engine t.net

let rec arm_rto t seq =
  ignore
    (Engine.schedule (engine t) ~delay:t.cfg.rto (fun () ->
         match Hashtbl.find_opt t.pending seq with
         | None -> ()
         | Some p ->
             if p.retries >= t.cfg.max_retries then Hashtbl.remove t.pending seq
             else begin
               p.retries <- p.retries + 1;
               Hashtbl.iter
                 (fun node () ->
                   Trace.incr t.trace "posack.retrans";
                   Net.unicast t.net ~src:t.source ~dst:node
                     (Retrans { seq; payload = p.payload }))
                 p.missing;
               arm_rto t seq
             end))

let source_handle t msg =
  match msg with
  | Ack { seq; receiver } -> (
      t.acks <- t.acks + 1;
      Trace.incr t.trace "posack.acks";
      match Hashtbl.find_opt t.pending seq with
      | None -> ()
      | Some p ->
          Hashtbl.remove p.missing receiver;
          if Hashtbl.length p.missing = 0 then begin
            Trace.incr t.trace "posack.complete";
            Trace.observe t.trace "posack.completion_latency"
              (Engine.now (engine t) -. p.sent_at);
            Hashtbl.remove t.pending seq
          end)
  | Data _ | Retrans _ -> ()

let deploy ~net ~trace ~config ~group ~source ~receivers =
  let t =
    {
      net;
      trace;
      cfg = config;
      group;
      source;
      receivers;
      next_seq = 0;
      pending = Hashtbl.create 64;
      acks = 0;
    }
  in
  Net.set_handler net source (fun ~src:_ msg -> source_handle t msg);
  List.iter
    (fun node ->
      Net.join net ~group node;
      let seen = Hashtbl.create 64 in
      Net.set_handler net node (fun ~src:_ msg ->
          match msg with
          | Data { seq; _ } | Retrans { seq; _ } ->
              Hashtbl.replace seen seq ();
              Net.unicast net ~src:node ~dst:source (Ack { seq; receiver = node })
          | Ack _ -> ()))
    receivers;
  t

let send t payload =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let missing = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace missing r ()) t.receivers;
  Hashtbl.replace t.pending seq
    { payload; sent_at = Engine.now (engine t); missing; retries = 0 };
  Net.multicast t.net ~src:t.source ~group:t.group (Data { seq; payload });
  arm_rto t seq

let acked_by_all t seq = not (Hashtbl.mem t.pending seq)
let acks_at_source t = t.acks
