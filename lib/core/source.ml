module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
open Io

type address = Message.address
type seq = Seqno.t

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  rep : Replication.t; (* deposit routing, ack policy, fail-over *)
  hb : Heartbeat.t;
  stat : Stat_ack.t;
  mutable seq : seq; (* last data seq; 0 = none *)
  mutable hb_index : int;
  mutable last_payload : string;
  retained : (seq, string * int) Hashtbl.t; (* payload, epoch at send *)
  rchannel_buf : (seq, string) Hashtbl.t; (* awaiting channel copies *)
  mutable evict_floor : seq; (* cap eviction already swept up to here *)
  mutable heartbeats_sent : int;
  mutable sends : int;
  out : Io.out; (* this machine's action buffer *)
}

let create cfg ~self ~primary ?(replicas = []) ?initial_estimate
    ?(sink = Trace.null ()) () =
  let retained = Hashtbl.create 64 in
  {
    cfg;
    self;
    sink;
    rep = Replication.create cfg ~self ~primary ~replicas ~retained ~sink ();
    hb = Heartbeat.of_config cfg;
    stat = Stat_ack.create cfg ~self ~retained ?initial_estimate ~sink ();
    seq = 0;
    hb_index = 0;
    last_payload = "";
    retained;
    rchannel_buf = Hashtbl.create 64;
    evict_floor = 0;
    heartbeats_sent = 0;
    sends = 0;
    out = Io.out ();
  }

let last_seq t = t.seq
let current_epoch t = Stat_ack.epoch t.stat
let primary t = Replication.primary t.rep
let retained t = Hashtbl.length t.retained
let released t = Replication.durable t.rep
let durable t = Replication.durable t.rep
let stat t = t.stat
let heartbeats_sent t = t.heartbeats_sent
let data_multicasts t = t.sends + Stat_ack.remulticasts t.stat
let failovers t = Replication.failovers t.rep

let group t = t.cfg.group

let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev
let push t a = Io.push t.out a

(* §2.3.2: payloads are retained for the stat-ack window even after
   the log replicas hold them; once ACK collection for [seq] is over,
   both conditions are met. *)
let tracking_done t seq =
  if Seqno.(seq <= released t) then Hashtbl.remove t.retained seq

(* Soft cap on the replay table (§2.3.2 meets fail-over): entries that
   the log infrastructure has both acknowledged and made durable are
   only being retained for a potential stat-ack re-multicast, so once
   the table outgrows [source_retain_max] they are evicted anyway — a
   re-multicast for an evicted seq degrades to logger recovery.  The
   [evict_floor] mark makes the sweep amortized O(1): a long outage
   freezes the floor, so the (futile) scan runs once, not per send. *)
let enforce_retain_bound t =
  let cap = t.cfg.source_retain_max in
  if cap > 0 && Hashtbl.length t.retained > cap then begin
    let acked = Replication.acked t.rep and released = released t in
    let floor = if Seqno.(acked < released) then acked else released in
    if Seqno.(floor > t.evict_floor) then begin
      t.evict_floor <- floor;
      let evict =
        Hashtbl.fold
          (fun seq _ acc -> if Seqno.(seq <= floor) then seq :: acc else acc)
          t.retained []
      in
      List.iter (Hashtbl.remove t.retained) evict
    end
  end

(* The durability floor moved: buffers at or below it can be released
   (§2.2.3) — unless statistical acking still needs them for a
   potential re-multicast (§2.3.2). *)
let release t =
  let floor = released t in
  let release =
    Hashtbl.fold
      (fun seq _ acc ->
        if Seqno.(seq <= floor) && not (Stat_ack.is_pending t.stat seq) then
          seq :: acc
        else acc)
      t.retained []
  in
  List.iter (Hashtbl.remove t.retained) release;
  enforce_retain_bound t

let arm_heartbeat t = Set_timer (K_heartbeat, Heartbeat.next_delay t.hb)

let start t ~now:_ =
  Io.begin_call t.out;
  push t (arm_heartbeat t);
  Stat_ack.start t.stat t.out;
  t.out

let send t ~now payload =
  Io.begin_call t.out;
  t.seq <- Seqno.succ t.seq;
  let seq = t.seq and epoch = current_epoch t in
  t.last_payload <- payload;
  Hashtbl.replace t.retained seq (payload, epoch);
  enforce_retain_bound t;
  Heartbeat.on_data t.hb;
  t.sends <- t.sends + 1;
  if Trace.is_on t.sink then trace t ~now (Trace.Send { seq });
  push t
    (Io.send ~group:(group t)
       (Message.Data { seq; epoch; payload = Payload.of_string payload }));
  Replication.deposit t.rep t.out ~now ~seq ~epoch ~payload;
  push t (arm_heartbeat t);
  (match t.cfg.rchannel_group with
  | None -> ()
  | Some _ ->
      Hashtbl.replace t.rchannel_buf seq payload;
      push t (Set_timer (K_rchannel (seq, 0), t.cfg.h_min)));
  Stat_ack.on_data_sent t.stat t.out ~now seq;
  t.out

(* --- heartbeats ------------------------------------------------------ *)

let heartbeat_payload t =
  if
    t.cfg.heartbeat_payload_max > 0
    && t.seq > 0
    && String.length t.last_payload <= t.cfg.heartbeat_payload_max
  then Some (Payload.of_string t.last_payload)
  else None

let on_heartbeat_due t ~now =
  t.hb_index <- t.hb_index + 1;
  t.heartbeats_sent <- t.heartbeats_sent + 1;
  let msg =
    Message.Heartbeat
      {
        seq = t.seq;
        hb_index = t.hb_index;
        epoch = current_epoch t;
        payload = heartbeat_payload t;
      }
  in
  Heartbeat.on_heartbeat t.hb;
  (* The heartbeat machine's observable state is its backed-off
     interval: [interval] is the phase after this beat. *)
  if Trace.is_on t.sink then
    trace t ~now
      (Trace.Heartbeat_phase
         { hb_index = t.hb_index; interval = Heartbeat.interval t.hb; seq = t.seq });
  push t (Io.send ~group:(group t) msg);
  push t (arm_heartbeat t)

(* --- dispatch --------------------------------------------------------- *)

let handle_message t ~now ~src msg =
  Io.begin_call t.out;
  (match msg with
  | Message.Who_is_primary ->
      push t
        (Io.send_to src
           (Message.Primary_is { logger = Replication.primary t.rep }))
  | _ -> (
      match Stat_ack.on_message t.stat t.out ~now msg with
      | Some seq -> tracking_done t seq
      | None ->
          if Replication.on_message t.rep t.out ~now ~src msg then release t));
  t.out

(* §7: re-multicast the packet on the retransmission channel
   [rchannel_copies] times with exponentially growing gaps. *)
let on_rchannel_due t ~now seq k =
  match (t.cfg.rchannel_group, Hashtbl.find_opt t.rchannel_buf seq) with
  | Some channel, Some payload ->
      if Trace.is_on t.sink then
        trace t ~now (Trace.Retrans { seq; mode = Trace.R_rchannel });
      let payload = Payload.of_string payload in
      push t
        (Io.send ~group:channel
           (Message.Retrans { seq; epoch = current_epoch t; payload }));
      if k + 1 >= Config.rchannel_copies then Hashtbl.remove t.rchannel_buf seq
      else
        let gap = t.cfg.backoff ** float_of_int (k + 1) in
        push t (Set_timer (K_rchannel (seq, k + 1), t.cfg.h_min *. gap))
  | _ -> ()

let handle_timer t ~now key =
  Io.begin_call t.out;
  (match key with
  | K_heartbeat -> on_heartbeat_due t ~now
  | K_rchannel (seq, k) -> on_rchannel_due t ~now seq k
  | _ -> (
      match Stat_ack.on_timer t.stat t.out ~now key with
      | Some seq -> tracking_done t seq
      | None -> Replication.on_timer t.rep t.out ~now key));
  t.out
