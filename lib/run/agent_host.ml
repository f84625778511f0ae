module Message = Lbrm_wire.Message
module Metrics = Lbrm_util.Metrics
module Engine = Lbrm_sim.Engine
module Io = Lbrm.Io
open Io

type address = Message.address

type 'e transport = {
  engine : Engine.t;
  unicast : 'e -> dst:address -> Message.t -> int;
  multicast : 'e -> group:int -> ttl:int option -> Message.t -> int;
  join : group:int -> address -> unit;
  leave : group:int -> address -> unit;
}

type meter = {
  registry : Metrics.t;
  (* wire tag -> interned counter, so per-message accounting neither
     builds a "sent.<kind>" string nor hashes the kind *)
  sent : Metrics.counter option array;
  recv : Metrics.counter option array;
  (* each forced on first use, so an idle registry stays empty *)
  delivered : Metrics.counter Lazy.t;
  recovered : Metrics.counter Lazy.t;
  gaps : Metrics.counter Lazy.t;
  silences : Metrics.counter Lazy.t;
  repaired : Metrics.counter Lazy.t;
  gave_up : Metrics.counter Lazy.t;
  suspected : Metrics.counter Lazy.t;
  promoted : Metrics.counter Lazy.t;
  epochs : Metrics.counter Lazy.t;
  remulticasts : Metrics.counter Lazy.t;
  discoveries : Metrics.counter Lazy.t;
  feedback_loss : Metrics.counter Lazy.t;
  recovery_latency : Lbrm_util.Stats.Sample.t Lazy.t;
  estimate : Lbrm_util.Stats.Sample.t Lazy.t;
}

type 'e agent = {
  addr : address;
  endpoint : 'e;
  handlers : Handlers.t;
  timers : (timer_key, Engine.timer) Hashtbl.t;
  meter : meter;
}

type 'e t = {
  tr : 'e transport;
  agents : (address, 'e agent) Hashtbl.t;
}

let create tr = { tr; agents = Hashtbl.create 64 }

let meter registry =
  {
    registry;
    sent = Array.make Lbrm_wire.Codec.tags None;
    recv = Array.make Lbrm_wire.Codec.tags None;
    delivered = lazy (Metrics.counter registry "app.delivered");
    recovered = lazy (Metrics.counter registry "app.recovered");
    gaps = lazy (Metrics.counter registry "loss.gaps");
    silences = lazy (Metrics.counter registry "loss.silence");
    repaired = lazy (Metrics.counter registry "loss.recovered");
    gave_up = lazy (Metrics.counter registry "loss.gave_up");
    suspected = lazy (Metrics.counter registry "failover.suspected");
    promoted = lazy (Metrics.counter registry "failover.promoted");
    epochs = lazy (Metrics.counter registry "statack.epochs");
    remulticasts = lazy (Metrics.counter registry "statack.remulticast");
    discoveries = lazy (Metrics.counter registry "discovery.finished");
    feedback_loss = lazy (Metrics.counter registry "statack.feedback_loss");
    recovery_latency = lazy (Metrics.sample registry "recovery_latency");
    estimate = lazy (Metrics.sample registry "statack.estimate");
  }

let[@lint.hot] count cache registry prefix msg n =
  let tag = Lbrm_wire.Codec.tag_of msg in
  match cache.(tag) with
  | Some c -> Metrics.add c n
  | None ->
      (let c = Metrics.counter registry (prefix ^ Message.kind msg) in
       cache.(tag) <- Some c;
       Metrics.add c n)
      [@lint.alloc "first message of a kind interns its counter"]

let sent agent msg n =
  if n > 0 then count agent.meter.sent agent.meter.registry "sent." msg n

let note counter n = Metrics.add (Lazy.force counter) n

(* Runtime-side notice accounting: the same counters and samples on
   every transport. *)
let record_notice meter = function
  | N_gap seqs -> note meter.gaps (List.length seqs)
  | N_silence _ -> note meter.silences 1
  | N_recovered { latency; _ } ->
      note meter.repaired 1;
      Metrics.observe (Lazy.force meter.recovery_latency) latency
  | N_gave_up _ -> note meter.gave_up 1
  | N_primary_suspected -> note meter.suspected 1
  | N_new_primary _ -> note meter.promoted 1
  | N_epoch _ -> note meter.epochs 1
  | N_remulticast _ -> note meter.remulticasts 1
  | N_estimate n -> Metrics.observe (Lazy.force meter.estimate) n
  | N_discovery _ -> note meter.discoveries 1
  | N_feedback { missing; _ } -> if missing > 0 then note meter.feedback_loss 1

let cancel t agent key =
  match Hashtbl.find agent.timers key with
  | timer -> Engine.cancel t.tr.engine timer
  | exception Not_found -> ()

(* [now] is the clock reading the handler saw, reused for every
   [Deliver] and [Notify] its actions carry: one read per dispatch.
   [perform] runs actions outside any dispatch and passes [unread], so
   the clock is read only if an action needs it. *)
let unread = Float.nan

let clock t now = if Float.is_nan now then Engine.now t.tr.engine else now

let rec fire t agent key () =
  Hashtbl.remove agent.timers key;
  let now = Engine.now t.tr.engine in
  run t agent ~now (agent.handlers.on_timer ~now key)

(* Execute the latest call's actions, then drop them.  A callback may
   re-enter the machine and perform a nested call: its actions land
   after this call's and the nested drain truncates them away before
   the callback returns, so this loop still sees exactly its own. *)
and[@lint.hot] run t agent ~now out =
  let from = Io.start_drain out in
  for i = from to Io.length out - 1 do
    execute t agent ~now (Io.get out i)
  done;
  Io.end_drain out from

and execute t agent ~now = function
  | Send (To_addr dst, msg) ->
      sent agent msg (t.tr.unicast agent.endpoint ~dst msg)
  | Send (To_group { group; ttl }, msg) ->
      sent agent msg (t.tr.multicast agent.endpoint ~group ~ttl msg)
  | Set_timer (key, delay) -> (
      (* A live key is re-keyed in place: same node, same thunk, the
         order cancel+schedule would give. *)
      match Hashtbl.find agent.timers key with
      | timer -> Engine.reschedule t.tr.engine timer ~delay
      | exception Not_found ->
          Hashtbl.replace agent.timers key
            (Engine.schedule_kind t.tr.engine ~kind:Engine.kind_timer ~delay
               (fire t agent key)))
  | Cancel_timer key ->
      cancel t agent key;
      Hashtbl.remove agent.timers key
  | Deliver { seq; payload; recovered } -> (
      Metrics.incr (Lazy.force agent.meter.delivered);
      if recovered then Metrics.incr (Lazy.force agent.meter.recovered);
      match agent.handlers.on_deliver with
      | Some f -> f ~now:(clock t now) ~seq ~payload ~recovered
      | None -> ())
  | Notify notice -> (
      record_notice agent.meter notice;
      match agent.handlers.on_notice with
      | Some f -> f ~now:(clock t now) notice
      | None -> ())
  | Join group -> t.tr.join ~group agent.addr
  | Leave group -> t.tr.leave ~group agent.addr

let[@lint.hot] receive t agent ~now ~src msg =
  count agent.meter.recv agent.meter.registry "recv." msg 1;
  run t agent ~now (agent.handlers.on_message ~now ~src msg)

let add t addr endpoint meter handlers =
  assert (not (Hashtbl.mem t.agents addr));
  let agent = { addr; endpoint; handlers; timers = Hashtbl.create 16; meter } in
  Hashtbl.replace t.agents addr agent;
  agent

let endpoint agent = agent.endpoint
let metrics agent = agent.meter.registry

let dispatch t addr ~now ~src msg =
  match Hashtbl.find t.agents addr with
  | agent -> receive t agent ~now ~src msg
  | exception Not_found -> ()

let perform t addr out =
  match Hashtbl.find t.agents addr with
  | agent -> run t agent ~now:unread out
  | exception Not_found -> Io.discard out

let crash t addr =
  match Hashtbl.find t.agents addr with
  | agent ->
      Hashtbl.iter (fun _ timer -> Engine.cancel t.tr.engine timer)
        agent.timers;
      Hashtbl.reset agent.timers
  | exception Not_found -> ()

let remove t addr =
  crash t addr;
  Hashtbl.remove t.agents addr
