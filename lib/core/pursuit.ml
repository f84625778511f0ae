module Message = Lbrm_wire.Message
module Codec = Lbrm_wire.Codec
module Seqno = Lbrm_util.Seqno
open Io

type address = Message.address
type seq = Seqno.t

type pursuit = {
  mutable level : int; (* index into the logger hierarchy *)
  mutable attempts : int; (* NACK rounds sent so far *)
  mutable asked_source : bool; (* Who_is_primary already tried *)
  mutable needs_send : bool; (* include in the next NACK flush *)
  detected_at : float;
}

(* The fields an arrival reads come first, next to each other: a
   thousand-receiver deployment reaches each of its thousand records
   from a cold cache. *)
type t = {
  last_heard : float array;
      (* one slot: every arrival writes it unboxed, with no write barrier *)
  arm_silence : action; (* built once: re-armed on every arrival *)
  pursuits : (seq, pursuit) Hashtbl.t;
  mutable loggers : address list;
  mutable level0_failures : int; (* consecutive unanswered level-0 asks *)
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  source : address;
  missing : seq -> int;
  write_off : seq -> unit;
  highest : unit -> seq;
  by_level : (int, seq list) Hashtbl.t; (* flush scratch *)
  mutable on_rchannel : bool; (* subscribed to the §7 channel *)
  (* re-discovery of a replacement nearest logger (§2.2.1): armed when
     the current level-0 logger stops answering *)
  mutable discovery : Discovery.t option;
  mutable rediscoveries : int;
  mutable nacks_sent : int;
  mutable gave_up : int;
}

let create ?(sink = Trace.null ()) cfg ~self ~source ~loggers ~missing
    ~write_off ~highest =
  assert (loggers <> []);
  {
    last_heard = [| 0. |];
    arm_silence = Set_timer (K_silence, cfg.Config.max_it);
    (* A receiver pursues a handful of seqs at a time; the table grows
       for a burst.  Starting small keeps a thousand-receiver deployment
       cheap to build. *)
    pursuits = Hashtbl.create 8;
    loggers;
    level0_failures = 0;
    cfg;
    self;
    sink;
    source;
    missing;
    write_off;
    highest;
    by_level = Hashtbl.create 4;
    on_rchannel = false;
    discovery = None;
    rediscoveries = 0;
    nacks_sent = 0;
    gave_up = 0;
  }

let loggers t = t.loggers
let logger_at t level = List.nth_opt t.loggers level
let last_heard t = t.last_heard.(0)
let nacks_sent t = t.nacks_sent
let gave_up t = t.gave_up
let rediscoveries t = t.rediscoveries
let discovering t = Option.is_some t.discovery
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev

let resend_all t out =
  Hashtbl.iter (fun _ p -> p.needs_send <- true) t.pursuits;
  Io.push out (Set_timer (K_nack_flush, 0.))

(* --- logger hierarchy ------------------------------------------------- *)

let primary_is t out logger =
  let rec replace_last = function
    | [] | [ _ ] -> [ logger ]
    | x :: rest -> x :: replace_last rest
  in
  t.loggers <- replace_last t.loggers;
  resend_all t out

let drop_nearest t =
  match t.loggers with
  | _ :: (_ :: _ as rest) ->
      t.loggers <- rest;
      Hashtbl.iter (fun _ p -> p.level <- Stdlib.max 0 (p.level - 1)) t.pursuits
  | _ -> ()

let adopt_nearest t out logger =
  t.loggers <- logger :: List.filter (fun a -> a <> logger) t.loggers;
  Hashtbl.iter (fun _ p -> p.level <- 0) t.pursuits;
  if Hashtbl.length t.pursuits > 0 then resend_all t out

(* --- nearest-logger re-discovery (§2.2.1) ----------------------------- *)

(* The chosen secondary stopped answering: drop it from the hierarchy
   (keeping at least a last-resort level) and restart the expanding-ring
   search instead of retrying it forever. *)
let begin_rediscovery t out ~now =
  match t.discovery with
  | Some _ -> ()
  | None ->
      t.level0_failures <- 0;
      drop_nearest t;
      let dsc = Discovery.create t.cfg in
      t.discovery <- Some dsc;
      if Trace.is_on t.sink then
        trace t ~now (Trace.Rediscovery Trace.D_started);
      Discovery.start dsc out ~now

(* The search took a step: once it ends, put the logger it found at the
   front of the hierarchy and re-request everything still missing from
   it. *)
let discovery_step t out ~now dsc =
  if Discovery.finished dsc then begin
    t.discovery <- None;
    match Discovery.result dsc with
    | Some logger ->
        t.rediscoveries <- t.rediscoveries + 1;
        if Trace.is_on t.sink then
          trace t ~now (Trace.Rediscovery (Trace.D_adopted logger));
        t.level0_failures <- 0;
        adopt_nearest t out logger
    | None ->
        (* ring exhausted: keep what is left of the hierarchy *)
        if Trace.is_on t.sink then
          trace t ~now (Trace.Rediscovery Trace.D_exhausted)
  end

(* --- pursuits --------------------------------------------------------- *)

let open_ t out ~now seqs =
  match List.filter (fun s -> not (Hashtbl.mem t.pursuits s)) seqs with
  | [] -> ()
  | fresh -> (
      if Trace.is_on t.sink then
        trace t ~now (Trace.Gap_detected { seqs = fresh });
      List.iter
        (fun s ->
          Hashtbl.replace t.pursuits s
            {
              level = 0;
              attempts = 0;
              asked_source = false;
              needs_send = true;
              detected_at = now;
            })
        fresh;
      Io.push out (Notify (N_gap fresh));
      match t.cfg.rchannel_group with
      | None -> Io.push out (Set_timer (K_nack_flush, t.cfg.nack_delay))
      | Some channel ->
          (* §7: subscribe to the retransmission channel instead of
             requesting; fall back to NACK service only for packets the
             channel no longer carries. *)
          t.on_rchannel <- true;
          Io.push out (Join channel);
          let window = Config.rchannel_window t.cfg in
          Io.push out (Set_timer (K_nack_flush, window +. t.cfg.nack_delay)))

(* Every pursuit ends here, repaired, abandoned or no longer missed:
   once nothing is pursued, leave the §7 channel. *)
let drop t out seq =
  Hashtbl.remove t.pursuits seq;
  match t.cfg.rchannel_group with
  | Some channel when t.on_rchannel && Hashtbl.length t.pursuits = 0 ->
      t.on_rchannel <- false;
      Io.push out (Leave channel)
  | _ -> ()

(* In-order arrivals close nothing: skip the hash when nothing is
   pursued. *)
let close t out ~now seq =
  if Hashtbl.length t.pursuits > 0 then
    match Hashtbl.find_opt t.pursuits seq with
    | None -> ()
    | Some p ->
        Io.push out (Cancel_timer (K_nack_escalate seq));
        Io.push out
          (Notify (N_recovered { seq; latency = now -. p.detected_at }));
        drop t out seq

let abandon t out ~now seq =
  t.write_off seq;
  t.gave_up <- t.gave_up + 1;
  if Trace.is_on t.sink then trace t ~now (Trace.Gave_up { seq });
  Io.push out (Cancel_timer (K_nack_escalate seq));
  Io.push out (Notify (N_gave_up seq));
  drop t out seq

let copies t seq =
  Stdlib.max 1 (Stdlib.min (t.missing seq) t.cfg.remcast_request_threshold)

(* Copy [c] of a level's NACK, cut into NACKs that fit a datagram slot:
   every seq for copy 0, the seqs wanting more than [c] copies after. *)
let copy_nacks t seqs c =
  Codec.nack_batches
    (if c = 0 then seqs else List.filter (fun s -> copies t s > c) seqs)

let rec trace_nacks t ~now ~dest ~level = function
  | [] -> ()
  | seqs :: rest ->
      t.nacks_sent <- t.nacks_sent + 1;
      if Trace.is_on t.sink then
        trace t ~now (Trace.Nack_sent { dest; level; seqs });
      trace_nacks t ~now ~dest ~level rest

let rec push_nacks out dest = function
  | [] -> ()
  | seqs :: rest ->
      Io.push out (Io.send_to dest (Message.Nack { seqs }));
      push_nacks out dest rest

let rec push_escalations t out = function
  | [] -> ()
  | s :: rest ->
      Io.push out (Set_timer (K_nack_escalate s, t.cfg.nack_timeout));
      push_escalations t out rest

(* One NACK per hierarchy level covering every seq due there, in as
   many copies as its most-missed seq asks for.  Levels go out in the
   reverse of hash-bucket order, each as its copies (copy 0 first) and
   then its escalation timers; each level's copies are traced last copy
   first, levels in bucket order. *)
let flush t out ~now =
  Hashtbl.reset t.by_level;
  Hashtbl.iter
    (fun seq p ->
      if p.needs_send && t.missing seq > 0 then begin
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt t.by_level p.level)
        in
        Hashtbl.replace t.by_level p.level (seq :: existing);
        p.attempts <- p.attempts + 1;
        p.needs_send <- false
      end)
    t.pursuits;
  (* (logger, seqs ascending, copies), last bucket first *)
  let due =
    Hashtbl.fold
      (fun level seqs acc ->
        match logger_at t level with
        | None -> acc
        | Some logger ->
            let seqs = List.sort Seqno.compare seqs in
            let most =
              List.fold_left (fun c s -> Stdlib.max c (copies t s)) 1 seqs
            in
            for c = most - 1 downto 0 do
              trace_nacks t ~now ~dest:logger ~level (copy_nacks t seqs c)
            done;
            (logger, seqs, most) :: acc)
      t.by_level []
  in
  List.iter
    (fun (logger, seqs, most) ->
      for c = 0 to most - 1 do
        push_nacks out logger (copy_nacks t seqs c)
      done;
      push_escalations t out seqs)
    due

let unanswered_at_nearest t seq =
  match Hashtbl.find_opt t.pursuits seq with
  | Some p -> p.level = 0 && t.missing seq > 0
  | None -> false

(* Retry, climb, ask the source, abandon. *)
let climb t out ~now seq =
  match Hashtbl.find_opt t.pursuits seq with
  | None -> ()
  | Some p ->
      if t.missing seq = 0 then drop t out seq
      else if p.attempts < (p.level + 1) * t.cfg.nack_retry_limit then begin
        (* Retry at the same level. *)
        p.needs_send <- true;
        Io.push out (Set_timer (K_nack_flush, 0.))
      end
      else if p.level + 1 < List.length t.loggers then begin
        p.level <- p.level + 1;
        p.needs_send <- true;
        Io.push out (Set_timer (K_nack_flush, 0.))
      end
      else if not p.asked_source then begin
        (* The whole hierarchy failed: maybe the primary moved. *)
        p.asked_source <- true;
        p.attempts <- p.level * t.cfg.nack_retry_limit;
        Io.push out (Io.send_to t.source Message.Who_is_primary);
        Io.push out (Set_timer (K_nack_escalate seq, 2. *. t.cfg.nack_timeout))
      end
      else abandon t out ~now seq

(* Count a level-0 silence before the ladder decides: rediscovery drops
   the nearest level, which the decision must see.  Its actions still
   go out after the ladder's. *)
let escalate t out ~now seq =
  let at = Io.length out in
  if unanswered_at_nearest t seq then begin
    t.level0_failures <- t.level0_failures + 1;
    if t.level0_failures >= t.cfg.retrans_retry_limit then
      begin_rediscovery t out ~now
  end;
  let from = Io.length out in
  climb t out ~now seq;
  Io.hoist out ~at ~from

(* --- silence ---------------------------------------------------------- *)

(* MaxIT passed with nothing heard: ask the nearest logger what the
   latest packet is, in case we missed everything.  Prolonged total
   silence can also mean the nearest logger died with the flow idle:
   past the deadline, go looking for a live one instead of NACKing a
   corpse forever. *)
let silence t out ~now =
  let ask =
    match logger_at t 0 with
    | Some logger when t.highest () > 0 || last_heard t > 0. ->
        t.nacks_sent <- t.nacks_sent + 1;
        if Trace.is_on t.sink then
          trace t ~now
            (Trace.Nack_sent { dest = logger; level = 0; seqs = [] });
        Some logger
    | _ -> None
  in
  if Trace.is_on t.sink then
    trace t ~now (Trace.Silence { elapsed = now -. last_heard t });
  Io.push out (Notify (N_silence (now -. last_heard t)));
  Option.iter
    (fun logger -> Io.push out (Io.send_to logger (Message.Nack { seqs = [] })))
    ask;
  if last_heard t > 0. && now -. last_heard t >= t.cfg.rediscovery_silence then
    begin_rediscovery t out ~now;
  Io.push out t.arm_silence

(* --- entry points ----------------------------------------------------- *)

let start t out = Io.push out t.arm_silence

let[@inline] heard t out ~now =
  t.last_heard.(0) <- now;
  Io.push out t.arm_silence

(* Every arrival but Data and Heartbeat, kept out of line so that their
   re-arm inlines into the embedder's receive path. *)
let other_arrival t out ~now ~src msg =
  match msg with
  | Message.Retrans _ ->
      (* The nearest logger proving itself alive clears the
         re-discovery failure count. *)
      (match t.loggers with
      | nearest :: _ when nearest = src -> t.level0_failures <- 0
      | _ -> ());
      heard t out ~now
  | Message.Discovery_reply _ -> (
      match t.discovery with
      | Some dsc when Discovery.handle_message dsc out ~now ~src msg ->
          discovery_step t out ~now dsc
      | Some _ | None -> ())
  | Message.Primary_is { logger } -> primary_is t out logger
  | _ -> ()

(* The watchdog re-arm goes first; none of the embedder's arrival paths
   reads [last_heard]. *)
let[@lint.hot] [@inline] arrival t out ~now ~src msg =
  match msg with
  | Message.Data _ | Message.Heartbeat _ -> heard t out ~now
  | _ -> other_arrival t out ~now ~src msg

let handle_timer t out ~now key =
  match key with
  | K_nack_flush -> flush t out ~now
  | K_nack_escalate seq -> escalate t out ~now seq
  | K_discovery _ -> (
      match t.discovery with
      | Some dsc when Discovery.handle_timer dsc out ~now key ->
          discovery_step t out ~now dsc
      | Some _ | None -> ())
  | K_silence -> silence t out ~now
  | _ -> ()
