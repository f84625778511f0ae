module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
open Io

type address = Message.address
type seq = Seqno.t

type pending = {
  mutable sent_at : float;
  p_epoch : int;
  expected : int;
  mutable acks : int;
  mutable last_ack_at : float;
  mutable remulticasts : int;
}

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  retained : (seq, string * int) Hashtbl.t; (* owner's replay table *)
  mutable n_sl : float;
  mutable t_wait : float;
  mutable epoch : int; (* epoch current data packets carry; 0 = none *)
  mutable next_epoch : int;
  mutable expected : int;
  (* designated ackers per epoch (current and the one settling) *)
  epochs : (int, (address, unit) Hashtbl.t) Hashtbl.t;
  p_acks : (int, float) Hashtbl.t;
  pending : (seq, pending) Hashtbl.t;
  hotlist : Group_estimate.Hotlist.t;
  mutable probing : Group_estimate.Probing.t option;
  probe_replies : (int, int) Hashtbl.t;
  max_remulticasts : int;
  mutable remulticasts_sent : int;
}

(* Unsolicited ACKs before a faulty logger is ignored (§2.3.3). *)
let hotlist_threshold = 5

let create (cfg : Config.t) ~self ~retained ?initial_estimate
    ?(sink = Trace.null ()) () =
  {
    cfg;
    self;
    sink;
    retained;
    n_sl = Option.value ~default:0. initial_estimate;
    t_wait = cfg.t_wait_init;
    epoch = 0;
    next_epoch = 0;
    expected = 0;
    epochs = Hashtbl.create 4;
    p_acks = Hashtbl.create 4;
    pending = Hashtbl.create 64;
    hotlist = Group_estimate.Hotlist.create ~threshold:hotlist_threshold;
    probing =
      (match initial_estimate with
      | Some _ -> None
      | None -> Some (Group_estimate.Probing.create ()));
    probe_replies = Hashtbl.create 8;
    max_remulticasts = 2;
    remulticasts_sent = 0;
  }

let epoch t = t.epoch
let is_pending t seq = Hashtbl.mem t.pending seq
let n_sl t = t.n_sl
let t_wait t = t.t_wait
let expected_acks t = t.expected
let ignored_ackers t = Group_estimate.Hotlist.ignored t.hotlist
let remulticasts t = t.remulticasts_sent

let designated t =
  match Hashtbl.find_opt t.epochs t.epoch with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun a () acc -> a :: acc) tbl [] |> List.sort Int.compare

let group t = t.cfg.group
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev

(* --- epochs --------------------------------------------------------- *)

let p_ack_for t =
  let n = Float.max 1. t.n_sl in
  Float.min 1. (float_of_int t.cfg.k_ackers /. n)

let begin_epoch_setup t out =
  t.next_epoch <- Stdlib.max (t.epoch + 1) (t.next_epoch + 1);
  let p_ack = p_ack_for t in
  Hashtbl.replace t.epochs t.next_epoch (Hashtbl.create 32);
  Hashtbl.replace t.p_acks t.next_epoch p_ack;
  (* Forget epochs older than the previous one. *)
  Hashtbl.iter
    (fun e _ -> if e < t.epoch then Hashtbl.remove t.p_acks e)
    (Hashtbl.copy t.p_acks);
  Hashtbl.iter
    (fun e _ -> if e < t.epoch then Hashtbl.remove t.epochs e)
    (Hashtbl.copy t.epochs);
  Io.push out
    (Io.send ~group:(group t)
       (Message.Acker_select { epoch = t.next_epoch; p_ack }));
  Io.push out (Set_timer (K_epoch_settle t.next_epoch, 2. *. t.t_wait));
  Io.push out (Set_timer (K_epoch_start, t.cfg.epoch_interval))

let settle_epoch t out ~now e =
  if e = t.next_epoch then begin
    t.epoch <- e;
    let tbl =
      Option.value ~default:(Hashtbl.create 1) (Hashtbl.find_opt t.epochs e)
    in
    t.expected <- Hashtbl.length tbl;
    Group_estimate.Hotlist.decay t.hotlist;
    let p_ack = Option.value ~default:1. (Hashtbl.find_opt t.p_acks e) in
    if Trace.is_on t.sink then
      trace t ~now
        (Trace.Epoch_settled { epoch = e; expected = t.expected; p_ack });
    Io.push out
      (Notify (N_epoch { epoch = e; expected_acks = t.expected; p_ack }))
  end

(* One step of Bolot-style probing (§2.3.3): multicast the next round,
   or adopt the settled estimate and set up the first epoch. *)
let probe t out = function
  | Group_estimate.Probing.Probe { round; p } ->
      Io.push out (Io.send ~group:(group t) (Message.Probe { round; p }));
      Io.push out (Set_timer (K_probe round, 2. *. t.t_wait))
  | Group_estimate.Probing.Done est ->
      t.n_sl <- est;
      t.probing <- None;
      Hashtbl.reset t.probe_replies;
      begin_epoch_setup t out;
      Io.push out (Notify (N_estimate est))

let start t out =
  if t.cfg.stat_ack_enabled then
    match t.probing with
    | Some probing -> probe t out (Group_estimate.Probing.start probing)
    | None -> begin_epoch_setup t out

(* --- per-packet accounting ------------------------------------------ *)

let on_data_sent t out ~now seq =
  if t.cfg.stat_ack_enabled && t.epoch <> 0 then begin
    Hashtbl.replace t.pending seq
      {
        sent_at = now;
        p_epoch = t.epoch;
        expected = t.expected;
        acks = 0;
        last_ack_at = now;
        remulticasts = 0;
      };
    Io.push out (Set_timer (K_twait seq, t.t_wait))
  end

let refine_estimate t ~p_epoch ~k' =
  match Hashtbl.find_opt t.p_acks p_epoch with
  | Some p_ack when p_ack > 0. ->
      t.n_sl <-
        Group_estimate.refine ~alpha:t.cfg.estimate_alpha ~current:t.n_sl ~k'
          ~p_ack
  | _ -> ()

(* EWMA gain of the t_wait estimator. *)
let t_wait_alpha = 0.125

let update_t_wait t rtt_new =
  (* t'_wait = alpha * rtt_new + (1 - alpha) * t_wait, capped at twice
     the old value so a straggler cannot blow the timer up (§2.3.2's
     2·t_wait listening bound). *)
  let rtt_new = Float.min rtt_new (2. *. t.t_wait) in
  t.t_wait <-
    (t_wait_alpha *. rtt_new) +. ((1. -. t_wait_alpha) *. t.t_wait)

let is_designated t ~epoch ~logger =
  match Hashtbl.find_opt t.epochs epoch with
  | None -> false
  | Some tbl -> Hashtbl.mem tbl logger

(* ACK collection for [seq] is over: report the outcome and let the
   source drop the payload. *)
let tracking_done t out ~now seq ~missing ~expected =
  Hashtbl.remove t.pending seq;
  if Trace.is_on t.sink then
    trace t ~now (Trace.Stat_feedback { seq; missing; expected });
  Io.push out (Notify (N_feedback { seq; missing; expected }));
  Some seq

(* §2.3.2: multicast the retained payload again.  One already released
   is not resent: receivers recover it from the loggers. *)
let remulticast t out ~now seq =
  match Hashtbl.find_opt t.retained seq with
  | None -> ()
  | Some (payload, _) ->
      t.remulticasts_sent <- t.remulticasts_sent + 1;
      if Trace.is_on t.sink then
        trace t ~now (Trace.Retrans { seq; mode = Trace.R_stat });
      Io.push out (Notify (N_remulticast seq));
      let payload = Payload.of_string payload in
      Io.push out
        (Io.send ~group:(group t)
           (Message.Data { seq; epoch = t.epoch; payload }))

(* --- message handling ----------------------------------------------- *)

let on_acker_reply t ~epoch ~logger =
  if epoch = t.next_epoch && not (Group_estimate.Hotlist.is_ignored t.hotlist logger)
  then begin
    match Hashtbl.find_opt t.epochs epoch with
    | Some tbl -> Hashtbl.replace tbl logger ()
    | None -> ()
  end

let on_stat_ack t out ~now ~epoch ~seq ~logger =
  if Group_estimate.Hotlist.is_ignored t.hotlist logger then None
  else if not (is_designated t ~epoch ~logger) then begin
    Group_estimate.Hotlist.note_unsolicited t.hotlist logger;
    None
  end
  else
    match Hashtbl.find_opt t.pending seq with
    | Some p when p.p_epoch = epoch ->
        p.acks <- p.acks + 1;
        p.last_ack_at <- now;
        if p.acks >= p.expected then begin
          (* Complete: fold the full round trip into t_wait and the ACK
             count into the population estimate, then stop tracking. *)
          update_t_wait t (now -. p.sent_at);
          refine_estimate t ~p_epoch:p.p_epoch ~k':p.acks;
          Io.push out (Cancel_timer (K_twait seq));
          tracking_done t out ~now seq ~missing:0 ~expected:p.expected
        end
        else None
    | Some _ | None -> None

let on_probe_reply t ~round =
  match t.probing with
  | Some _ ->
      let c = Option.value ~default:0 (Hashtbl.find_opt t.probe_replies round) in
      Hashtbl.replace t.probe_replies round (c + 1)
  | None -> ()

let on_message t out ~now msg =
  if not t.cfg.stat_ack_enabled then None
  else
    match msg with
    | Message.Acker_reply { epoch; logger } ->
        on_acker_reply t ~epoch ~logger;
        None
    | Message.Stat_ack { epoch; seq; logger } ->
        on_stat_ack t out ~now ~epoch ~seq ~logger
    | Message.Probe_reply { round; logger = _ } ->
        on_probe_reply t ~round;
        None
    | _ -> None

(* --- timers ---------------------------------------------------------- *)

let on_probe_timeout t out round =
  match t.probing with
  | None -> ()
  | Some probing ->
      let replies =
        Option.value ~default:0 (Hashtbl.find_opt t.probe_replies round)
      in
      probe t out (Group_estimate.Probing.round_finished probing ~replies)

let on_twait t out ~now seq =
  match Hashtbl.find_opt t.pending seq with
  | None -> None
  | Some p ->
      let missing = p.expected - p.acks in
      refine_estimate t ~p_epoch:p.p_epoch ~k':p.acks;
      if p.acks > 0 then update_t_wait t (p.last_ack_at -. p.sent_at);
      if missing <= 0 then
        tracking_done t out ~now seq ~missing:0 ~expected:p.expected
      else begin
        let per_acker =
          if p.expected = 0 then t.n_sl
          else t.n_sl /. float_of_int p.expected
        in
        let represented = float_of_int missing *. per_acker in
        if
          represented >= t.cfg.remcast_site_threshold
          && p.remulticasts < t.max_remulticasts
        then begin
          (* Re-multicast immediately and collect a fresh ACK round. *)
          p.remulticasts <- p.remulticasts + 1;
          p.acks <- 0;
          p.sent_at <- now;
          if Trace.is_on t.sink then
            trace t ~now
              (Trace.Stat_feedback { seq; missing; expected = p.expected });
          Io.push out (Set_timer (K_twait seq, t.t_wait));
          remulticast t out ~now seq;
          Io.push out
            (Notify (N_feedback { seq; missing; expected = p.expected }));
          None
        end
        else
          (* Isolated loss (or retry budget exhausted): unicast NACK
             service will handle it. *)
          tracking_done t out ~now seq ~missing ~expected:p.expected
      end

let on_timer t out ~now key =
  if not t.cfg.stat_ack_enabled then None
  else
    match key with
    | K_probe round ->
        on_probe_timeout t out round;
        None
    | K_epoch_start ->
        begin_epoch_setup t out;
        None
    | K_epoch_settle e ->
        settle_epoch t out ~now e;
        None
    | K_twait seq -> on_twait t out ~now seq
    | _ -> None
