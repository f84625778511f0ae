module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
module Gap_tracker = Lbrm_util.Gap_tracker
open Io

type address = Message.address
type seq = Seqno.t

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  tracker : Gap_tracker.t;
  pursuit : Pursuit.t;
  mutable delivered : int;
  mutable recovered : int;
  mutable on_rchannel : bool; (* currently subscribed to the channel *)
  (* re-discovery of a replacement nearest logger (§2.2.1): armed when
     the current level-0 logger stops answering *)
  mutable discovery : Discovery.t option;
  mutable level0_failures : int; (* consecutive unanswered level-0 asks *)
  mutable rediscoveries : int;
  out : Io.out; (* this machine's action buffer *)
}

let create ?(sink = Trace.null ()) cfg ~self ~source ~loggers =
  let tracker = Gap_tracker.create () in
  (* Streams start at seq 1: priming a floor of 0 makes the very first
     arrival open a gap for any earlier packets. *)
  if cfg.Config.recover_from_start then ignore (Gap_tracker.note tracker 0);
  {
    cfg;
    self;
    sink;
    tracker;
    pursuit =
      Pursuit.create ~sink cfg ~self ~source ~loggers
        ~missing:(fun seq ->
          if Gap_tracker.is_missing tracker seq then 1 else 0)
        ~write_off:(Gap_tracker.abandon tracker);
    delivered = 0;
    recovered = 0;
    on_rchannel = false;
    discovery = None;
    level0_failures = 0;
    rediscoveries = 0;
    out = Io.out ();
  }

let highest_seen t = Option.value ~default:0 (Gap_tracker.highest t.tracker)
let missing t = Gap_tracker.missing t.tracker
let delivered t = t.delivered
let recovered t = t.recovered
let gave_up t = Pursuit.gave_up t.pursuit
let nacks_sent t = Pursuit.nacks_sent t.pursuit
let set_loggers t loggers = Pursuit.set_loggers t.pursuit loggers
let last_heard t = Pursuit.last_heard t.pursuit
let loggers t = Pursuit.loggers t.pursuit
let rediscoveries t = t.rediscoveries
let discovering t = Option.is_some t.discovery
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev

(* --- loss pursuit ----------------------------------------------------- *)

(* How long a fresh packet can still appear on the retransmission
   channel: the sum of the exponentially backed-off copy gaps. *)
let rchannel_window t =
  let rec total k acc =
    if k >= t.cfg.rchannel_copies then acc
    else total (k + 1) (acc +. (t.cfg.h_min *. (t.cfg.backoff ** float_of_int k)))
  in
  total 0 0.

let open_pursuits t ~now seqs =
  match Pursuit.open_ t.pursuit ~now seqs with
  | [] -> ()
  | fresh -> (
      Io.push t.out (Notify (N_gap fresh));
      match t.cfg.rchannel_group with
      | None -> Io.push t.out (Set_timer (K_nack_flush, t.cfg.nack_delay))
      | Some channel ->
          (* 7: subscribe to the retransmission channel instead of
             requesting; fall back to NACK service only for packets
             the channel no longer carries. *)
          t.on_rchannel <- true;
          Io.push t.out (Join channel);
          Io.push t.out
            (Set_timer (K_nack_flush, rchannel_window t +. t.cfg.nack_delay)))

let maybe_leave_channel t =
  match t.cfg.rchannel_group with
  | Some channel
    when t.on_rchannel && Gap_tracker.missing_count t.tracker = 0 ->
      t.on_rchannel <- false;
      Io.push t.out (Leave channel)
  | _ -> ()

let close_pursuit t ~now seq =
  if Pursuit.close t.pursuit t.out ~now seq then maybe_leave_channel t

(* --- nearest-logger re-discovery (§2.2.1) ----------------------------- *)

(* The chosen secondary stopped answering: drop it from the hierarchy
   (keeping at least a last-resort level) and restart the expanding-ring
   search instead of retrying it forever. *)
let begin_rediscovery t ~now =
  match t.discovery with
  | Some _ -> ()
  | None ->
      t.level0_failures <- 0;
      Pursuit.drop_nearest t.pursuit;
      let dsc = Discovery.create t.cfg in
      t.discovery <- Some dsc;
      if Trace.is_on t.sink then trace t ~now (Trace.Rediscovery Trace.D_started);
      Discovery.start dsc t.out ~now

(* A new nearest logger answered the ring search: put it at the front of
   the hierarchy and re-request everything still missing from it. *)
let adopt_logger t ~now logger =
  t.rediscoveries <- t.rediscoveries + 1;
  if Trace.is_on t.sink then
    trace t ~now (Trace.Rediscovery (Trace.D_adopted logger));
  t.level0_failures <- 0;
  Pursuit.adopt_nearest t.pursuit t.out logger

let finish_discovery t ~now =
  match t.discovery with
  | Some dsc when Discovery.finished dsc -> (
      t.discovery <- None;
      match Discovery.result dsc with
      | Some logger -> adopt_logger t ~now logger
      | None ->
          (* ring exhausted: keep what is left of the hierarchy *)
          if Trace.is_on t.sink then
            trace t ~now (Trace.Rediscovery Trace.D_exhausted))
  | Some _ | None -> ()

(* Called whenever a level-0 retransmission request went unanswered for
   a full [nack_timeout]. *)
let note_level0_failure t ~now =
  t.level0_failures <- t.level0_failures + 1;
  if t.level0_failures >= t.cfg.retrans_retry_limit && Option.is_none t.discovery
  then begin_rediscovery t ~now

let escalate t ~now seq =
  (* Count the level-0 silence before the ladder decides: rediscovery
     drops the nearest level, which the decision must see.  Its actions
     still go out after the ladder's. *)
  let at = Io.length t.out in
  if Pursuit.unanswered_at_nearest t.pursuit seq then
    note_level0_failure t ~now;
  let from = Io.length t.out in
  Pursuit.escalate t.pursuit t.out ~now seq;
  Io.hoist t.out ~at ~from

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
  close_pursuit t ~now seq

(* A packet past a gap: the gap is opened (and traced) before the
   delivery, but the delivery's actions go out first. *)
let deliver_past_gap t ~now seq payload ~recovered gaps =
  let at = Io.length t.out in
  open_pursuits t ~now gaps;
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
        open_pursuits t ~now (Gap_tracker.note_exists t.tracker seq)

let on_retrans t ~now ~seq ~payload =
  match Gap_tracker.note t.tracker seq with
  | Fills_gap -> deliver t ~now seq payload ~recovered:true
  | First | In_order ->
      (* A latest-query response for data we never knew existed. *)
      deliver t ~now seq payload ~recovered:true
  | Gap_opened gaps -> deliver_past_gap t ~now seq payload ~recovered:true gaps
  | Duplicate -> ()

(* --- dispatch ---------------------------------------------------------- *)

(* A discovery step consumed the event: adopt its result once it ends. *)
let discovery_step t ~now consumed = if consumed then finish_discovery t ~now

let handle_message t ~now ~src msg =
  let out = t.out in
  Io.begin_call out;
  (* The watchdog re-arm goes first; none of the arrival paths reads
     [last_heard]. *)
  (match msg with
  | Message.Data { seq; payload; _ } ->
      Io.push out (Pursuit.heard t.pursuit ~now);
      on_data t ~now ~seq ~payload
  | Message.Heartbeat { seq; payload; _ } ->
      Io.push out (Pursuit.heard t.pursuit ~now);
      on_heartbeat t ~now ~seq ~payload
  | Message.Retrans { seq; payload; _ } ->
      (* The nearest logger proving itself alive clears the
         re-discovery failure count. *)
      if Pursuit.logger_at t.pursuit 0 = Some src then t.level0_failures <- 0;
      Io.push out (Pursuit.heard t.pursuit ~now);
      on_retrans t ~now ~seq ~payload
  | Message.Discovery_reply _ -> (
      match t.discovery with
      | None -> ()
      | Some dsc ->
          discovery_step t ~now
            (Discovery.handle_message dsc out ~now ~src msg))
  | Message.Primary_is { logger } -> Pursuit.primary_is t.pursuit out logger
  | _ -> ());
  out

let start t ~now =
  ignore now;
  Io.begin_call t.out;
  Io.push t.out (Pursuit.arm_silence t.pursuit);
  t.out

let handle_timer t ~now key =
  let out = t.out in
  Io.begin_call out;
  (match key with
  | K_nack_flush -> Pursuit.flush t.pursuit out ~now
  | K_nack_escalate seq -> escalate t ~now seq
  | K_discovery _ -> (
      match t.discovery with
      | None -> ()
      | Some dsc ->
          discovery_step t ~now (Discovery.handle_timer dsc out ~now key))
  | K_silence ->
      Pursuit.silence t.pursuit out ~now ~highest:(highest_seen t);
      let last_heard = last_heard t in
      (* Prolonged total silence can also mean the nearest logger died
         with the flow idle: past the deadline, go looking for a live
         one instead of NACKing a corpse forever. *)
      if
        last_heard > 0.
        && now -. last_heard >= t.cfg.rediscovery_silence
        && Option.is_none t.discovery
      then begin_rediscovery t ~now;
      Io.push out (Pursuit.arm_silence t.pursuit)
  | _ -> ());
  out
