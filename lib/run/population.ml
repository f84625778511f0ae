module Message = Lbrm_wire.Message
module Site_population = Lbrm_sim.Site_population
module Trace = Lbrm.Trace
module Pursuit = Lbrm.Pursuit
open Lbrm.Io

type address = Message.address

(* One pursuit per distinct missing seq, whatever its multiplicity: the
   shared ladder reads [Site_population.remaining] as its missing count.
   No rediscovery: a population pins its hierarchy, so a dead secondary
   is escalated past, not replaced. *)
type t = {
  cfg : Lbrm.Config.t;
  self : address;
  sink : Trace.sink;
  model : Site_population.t;
  pursuit : Pursuit.t;
  on_feed : tracer:int -> now:float -> src:address -> Message.t -> unit;
  out : Lbrm.Io.out; (* this machine's action buffer *)
}

let create ?(sink = Trace.null ()) ~cfg ~self ~source ~loggers ~model ~on_feed
    () =
  {
    cfg;
    self;
    sink;
    model;
    (* [remaining = 0] is [is_fully_delivered] for every pursued seq:
       [open_site_gap] records a gap whenever the site tracker marks a
       seq missing, so a pursued seq leaves [gaps] only once delivered
       everywhere or written off. *)
    pursuit =
      Pursuit.create ~sink cfg ~self ~source ~loggers
        ~missing:(fun seq -> Site_population.remaining model ~seq)
        ~write_off:(fun seq -> ignore (Site_population.abandon model ~seq));
    on_feed;
    out = Lbrm.Io.out ();
  }

let model t = t.model
let missing t = Site_population.missing t.model
let nacks_sent t = Pursuit.nacks_sent t.pursuit
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev

let open_pursuits t ~now seqs =
  match Pursuit.open_ t.pursuit ~now seqs with
  | [] -> ()
  | fresh ->
      Lbrm.Io.push t.out (Notify (N_gap fresh));
      Lbrm.Io.push t.out (Set_timer (K_nack_flush, t.cfg.nack_delay))

(* --- data-plane arrivals ----------------------------------------------- *)

let feed_tracers t ~now ~src msg (outcome : Site_population.outcome) =
  Array.iteri
    (fun i got -> if got then t.on_feed ~tracer:i ~now ~src msg)
    outcome.tracer_got

(* Every payload-bearing arrival — Data, payload heartbeat, Retrans,
   unicast or remulticast — is one repair/delivery round over the
   population; the model decides who it reaches. *)
let on_payload t ~now ~src ~seq msg =
  let outcome = Site_population.on_packet t.model ~seq in
  feed_tracers t ~now ~src msg outcome;
  if Trace.is_on t.sink then
    if outcome.first then
      trace t ~now
        (Trace.Pop_arrival
           {
             seq;
             members = Site_population.size t.model;
             missed = outcome.still_missing;
           })
    else if outcome.newly_delivered > 0 then
      trace t ~now
        (Trace.Pop_repair
           {
             seq;
             repaired = outcome.newly_delivered;
             remaining = outcome.still_missing;
           });
  (* Gaps the packet reveals are opened (and traced) first, but the
     packet's own actions go out ahead of theirs. *)
  let at = Lbrm.Io.length t.out in
  (match outcome.opened with
  | [] -> ()
  | pairs -> open_pursuits t ~now (List.map fst pairs));
  let from = Lbrm.Io.length t.out in
  (if outcome.still_missing > 0 then begin
     if outcome.first then open_pursuits t ~now [ seq ]
   end
   else if outcome.newly_delivered > 0 || outcome.first then
     ignore (Pursuit.close t.pursuit t.out ~now seq : bool));
  Lbrm.Io.hoist t.out ~at ~from

let on_heartbeat t ~now ~src ~seq ~payload msg =
  match payload with
  | Some _ when seq > 0 -> on_payload t ~now ~src ~seq msg
  | _ ->
      (* Control-plane heartbeats fan out to every tracer: real
         receivers hear them too, for silence and gap detection. *)
      for i = 0 to Site_population.tracers t.model - 1 do
        t.on_feed ~tracer:i ~now ~src msg
      done;
      if seq <> 0 then
        let newly = Site_population.on_heartbeat t.model ~seq in
        open_pursuits t ~now (List.map fst newly)

(* The watchdog re-arm goes first; the arrival paths never read
   [last_heard]. *)
let handle_message t ~now ~src msg =
  let out = t.out in
  Lbrm.Io.begin_call out;
  (match msg with
  | Message.Data { seq; _ } | Message.Retrans { seq; _ } ->
      Lbrm.Io.push out (Pursuit.heard t.pursuit ~now);
      on_payload t ~now ~src ~seq msg
  | Message.Heartbeat { seq; payload; _ } ->
      Lbrm.Io.push out (Pursuit.heard t.pursuit ~now);
      on_heartbeat t ~now ~src ~seq ~payload msg
  | Message.Primary_is { logger } -> Pursuit.primary_is t.pursuit out logger
  | _ -> ());
  out

let start t ~now =
  ignore now;
  Lbrm.Io.begin_call t.out;
  Lbrm.Io.push t.out (Pursuit.arm_silence t.pursuit);
  t.out

let handle_timer t ~now key =
  let out = t.out in
  Lbrm.Io.begin_call out;
  (match key with
  | K_nack_flush -> Pursuit.flush t.pursuit out ~now
  | K_nack_escalate seq -> Pursuit.escalate t.pursuit out ~now seq
  | K_silence ->
      Pursuit.silence t.pursuit out ~now
        ~highest:(Site_population.highest t.model);
      Lbrm.Io.push out (Pursuit.arm_silence t.pursuit)
  | _ -> ());
  out

let handlers ?on_notice t =
  {
    Handlers.on_message = handle_message t;
    on_timer = handle_timer t;
    on_deliver = None;
    on_notice;
  }
