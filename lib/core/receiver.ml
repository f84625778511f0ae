module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
module Gap_tracker = Lbrm_util.Gap_tracker
open Io

type address = Message.address
type seq = Seqno.t

type t = {
  self : address;
  sink : Trace.sink;
  tracker : Gap_tracker.t;
  pursuit : Pursuit.t;
  mutable delivered : int;
  mutable recovered : int;
  out : Io.out; (* this machine's action buffer *)
}

let create ?(sink = Trace.null ()) cfg ~self ~source ~loggers =
  let tracker = Gap_tracker.create () in
  (* Streams start at seq 1: priming a floor of 0 makes the very first
     arrival open a gap for any earlier packets. *)
  if cfg.Config.recover_from_start then ignore (Gap_tracker.note tracker 0);
  {
    self;
    sink;
    tracker;
    pursuit =
      Pursuit.create ~sink cfg ~self ~source ~loggers
        ~missing:(fun seq ->
          if Gap_tracker.is_missing tracker seq then 1 else 0)
        ~write_off:(Gap_tracker.abandon tracker)
        ~highest:(fun () ->
          Option.value ~default:0 (Gap_tracker.highest tracker));
    delivered = 0;
    recovered = 0;
    out = Io.out ();
  }

let missing t = Gap_tracker.missing t.tracker
let delivered t = t.delivered
let recovered t = t.recovered
let gave_up t = Pursuit.gave_up t.pursuit
let nacks_sent t = Pursuit.nacks_sent t.pursuit
let loggers t = Pursuit.loggers t.pursuit
let rediscoveries t = Pursuit.rediscoveries t.pursuit
let discovering t = Pursuit.discovering t.pursuit
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev

(* --- data-plane arrivals ---------------------------------------------- *)

(* The application boundary owns its payloads: copy out of the wire view
   here, and only for packets that are actually delivered (duplicates
   never pay for it). *)
let deliver t ~now seq payload ~recovered:rec_ =
  t.delivered <- t.delivered + 1;
  if rec_ then t.recovered <- t.recovered + 1;
  if Trace.is_on t.sink then
    trace t ~now (Trace.Deliver { seq; recovered = rec_ });
  Io.push t.out
    (Deliver { seq; payload = Payload.to_owned payload; recovered = rec_ });
  Pursuit.close t.pursuit t.out ~now seq

(* A packet past a gap: the gap is opened (and traced) before the
   delivery, but the delivery's actions go out first. *)
let deliver_past_gap t ~now seq payload ~recovered gaps =
  let at = Io.length t.out in
  Pursuit.open_ t.pursuit t.out ~now gaps;
  let from = Io.length t.out in
  deliver t ~now seq payload ~recovered;
  Io.hoist t.out ~at ~from

let on_data t ~now ~seq ~payload =
  match Gap_tracker.note t.tracker seq with
  | First | In_order -> deliver t ~now seq payload ~recovered:false
  | Fills_gap -> deliver t ~now seq payload ~recovered:true
  | Duplicate -> ()
  | Gap_opened gaps -> deliver_past_gap t ~now seq payload ~recovered:false gaps

let on_heartbeat t ~now ~seq ~payload =
  match payload with
  | Some p when seq > 0 -> on_data t ~now ~seq ~payload:p
  | _ ->
      (* seq 0: source alive but nothing sent yet *)
      if seq <> 0 then
        Pursuit.open_ t.pursuit t.out ~now
          (Gap_tracker.note_exists t.tracker seq)

let on_retrans t ~now ~seq ~payload =
  match Gap_tracker.note t.tracker seq with
  | Fills_gap -> deliver t ~now seq payload ~recovered:true
  | First | In_order ->
      (* A latest-query response for data we never knew existed. *)
      deliver t ~now seq payload ~recovered:true
  | Gap_opened gaps -> deliver_past_gap t ~now seq payload ~recovered:true gaps
  | Duplicate -> ()

(* --- dispatch ---------------------------------------------------------- *)

let handle_message t ~now ~src msg =
  Io.begin_call t.out;
  Pursuit.arrival t.pursuit t.out ~now ~src msg;
  (match msg with
  | Message.Data { seq; payload; _ } -> on_data t ~now ~seq ~payload
  | Message.Heartbeat { seq; payload; _ } -> on_heartbeat t ~now ~seq ~payload
  | Message.Retrans { seq; payload; _ } -> on_retrans t ~now ~seq ~payload
  | _ -> ());
  t.out

let start t ~now =
  ignore now;
  Io.begin_call t.out;
  Pursuit.start t.pursuit t.out;
  t.out

let handle_timer t ~now key =
  Io.begin_call t.out;
  Pursuit.handle_timer t.pursuit t.out ~now key;
  t.out
