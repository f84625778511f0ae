module Message = Lbrm_wire.Message
module Site_population = Lbrm_sim.Site_population
module Trace = Lbrm.Trace
module Pursuit = Lbrm.Pursuit

type address = Message.address

(* One pursuit per distinct missing seq, whatever its multiplicity: the
   shared ladder reads [Site_population.remaining] as its missing count. *)
type t = {
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
        ~write_off:(fun seq -> ignore (Site_population.abandon model ~seq))
        ~highest:(fun () -> Site_population.highest model);
    on_feed;
    out = Lbrm.Io.out ();
  }

let model t = t.model
let missing t = Site_population.missing t.model
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev

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
  | pairs -> Pursuit.open_ t.pursuit t.out ~now (List.map fst pairs));
  let from = Lbrm.Io.length t.out in
  (if outcome.still_missing > 0 then begin
     if outcome.first then Pursuit.open_ t.pursuit t.out ~now [ seq ]
   end
   else if outcome.newly_delivered > 0 || outcome.first then
     Pursuit.close t.pursuit t.out ~now seq);
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
        Pursuit.open_ t.pursuit t.out ~now (List.map fst newly)

let handle_message t ~now ~src msg =
  Lbrm.Io.begin_call t.out;
  Pursuit.arrival t.pursuit t.out ~now ~src msg;
  (match msg with
  | Message.Data { seq; _ } | Message.Retrans { seq; _ } ->
      on_payload t ~now ~src ~seq msg
  | Message.Heartbeat { seq; payload; _ } ->
      on_heartbeat t ~now ~src ~seq ~payload msg
  | _ -> ());
  t.out

let start t ~now =
  ignore now;
  Lbrm.Io.begin_call t.out;
  Pursuit.start t.pursuit t.out;
  t.out

let handle_timer t ~now key =
  Lbrm.Io.begin_call t.out;
  Pursuit.handle_timer t.pursuit t.out ~now key;
  t.out

let handlers ?on_notice t =
  {
    Handlers.on_message = handle_message t;
    on_timer = handle_timer t;
    on_deliver = None;
    on_notice;
  }
