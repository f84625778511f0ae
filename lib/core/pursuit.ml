module Message = Lbrm_wire.Message
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

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  source : address;
  missing : seq -> int;
  write_off : seq -> unit;
  mutable loggers : address list;
  pursuits : (seq, pursuit) Hashtbl.t;
  by_level : (int, seq list) Hashtbl.t; (* flush scratch *)
  mutable last_heard : float;
  arm_silence : action; (* built once: re-armed on every arrival *)
  mutable nacks_sent : int;
  mutable gave_up : int;
}

let create ?(sink = Trace.null ()) cfg ~self ~source ~loggers ~missing
    ~write_off =
  assert (loggers <> []);
  {
    cfg;
    self;
    sink;
    source;
    missing;
    write_off;
    loggers;
    pursuits = Hashtbl.create 32;
    by_level = Hashtbl.create 4;
    last_heard = 0.;
    arm_silence = Set_timer (K_silence, cfg.Config.max_it);
    nacks_sent = 0;
    gave_up = 0;
  }

let loggers t = t.loggers
let set_loggers t loggers = if loggers <> [] then t.loggers <- loggers
let logger_at t level = List.nth_opt t.loggers level
let last_heard t = t.last_heard
let nacks_sent t = t.nacks_sent
let gave_up t = t.gave_up
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev

let resend_all t =
  Hashtbl.iter (fun _ p -> p.needs_send <- true) t.pursuits;
  [ Set_timer (K_nack_flush, 0.) ]

(* --- logger hierarchy ------------------------------------------------- *)

let primary_is t logger =
  let rec replace_last = function
    | [] | [ _ ] -> [ logger ]
    | x :: rest -> x :: replace_last rest
  in
  t.loggers <- replace_last t.loggers;
  resend_all t

let drop_nearest t =
  match t.loggers with
  | _ :: (_ :: _ as rest) ->
      t.loggers <- rest;
      Hashtbl.iter (fun _ p -> p.level <- Stdlib.max 0 (p.level - 1)) t.pursuits
  | _ -> ()

let adopt_nearest t logger =
  t.loggers <- logger :: List.filter (fun a -> a <> logger) t.loggers;
  Hashtbl.iter (fun _ p -> p.level <- 0) t.pursuits;
  if Hashtbl.length t.pursuits = 0 then [] else resend_all t

(* --- pursuits --------------------------------------------------------- *)

let open_ t ~now seqs =
  match List.filter (fun s -> not (Hashtbl.mem t.pursuits s)) seqs with
  | [] -> []
  | fresh ->
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
      fresh

let close t ~now seq =
  match Hashtbl.find_opt t.pursuits seq with
  | None -> []
  | Some p ->
      Hashtbl.remove t.pursuits seq;
      [
        Cancel_timer (K_nack_escalate seq);
        Notify (N_recovered { seq; latency = now -. p.detected_at });
      ]

let abandon t ~now seq =
  Hashtbl.remove t.pursuits seq;
  t.write_off seq;
  t.gave_up <- t.gave_up + 1;
  if Trace.is_on t.sink then trace t ~now (Trace.Gave_up { seq });
  [ Cancel_timer (K_nack_escalate seq); Notify (N_gave_up seq) ]

let copies t seq =
  Stdlib.max 1 (Stdlib.min (t.missing seq) t.cfg.remcast_request_threshold)

(* One NACK per hierarchy level covering every seq due there, in as
   many copies as its most-missed seq asks for. *)
let flush t ~now =
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
  Hashtbl.fold
    (fun level seqs acc ->
      match logger_at t level with
      | None -> acc
      | Some logger ->
          let seqs = List.sort Seqno.compare seqs in
          (* Built from the last copy back, so copy 0 is sent first. *)
          let rec nacks c sends =
            if c < 0 then sends
            else begin
              let batch =
                if c = 0 then seqs
                else List.filter (fun s -> copies t s > c) seqs
              in
              t.nacks_sent <- t.nacks_sent + 1;
              if Trace.is_on t.sink then
                trace t ~now
                  (Trace.Nack_sent { dest = logger; level; seqs = batch });
              nacks (c - 1)
                (Io.send_to logger (Message.Nack { seqs = batch }) :: sends)
            end
          in
          let most =
            List.fold_left (fun c s -> Stdlib.max c (copies t s)) 1 seqs
          in
          nacks (most - 1)
            (List.map
               (fun s -> Set_timer (K_nack_escalate s, t.cfg.nack_timeout))
               seqs
            @ acc))
    t.by_level []

let unanswered_at_nearest t seq =
  match Hashtbl.find_opt t.pursuits seq with
  | Some p -> p.level = 0 && t.missing seq > 0
  | None -> false

let escalate t ~now seq =
  match Hashtbl.find_opt t.pursuits seq with
  | None -> []
  | Some p ->
      if t.missing seq = 0 then begin
        Hashtbl.remove t.pursuits seq;
        []
      end
      else if p.attempts < (p.level + 1) * t.cfg.nack_retry_limit then begin
        (* Retry at the same level. *)
        p.needs_send <- true;
        [ Set_timer (K_nack_flush, 0.) ]
      end
      else if p.level + 1 < List.length t.loggers then begin
        p.level <- p.level + 1;
        p.needs_send <- true;
        [ Set_timer (K_nack_flush, 0.) ]
      end
      else if not p.asked_source then begin
        (* The whole hierarchy failed: maybe the primary moved. *)
        p.asked_source <- true;
        p.attempts <- p.level * t.cfg.nack_retry_limit;
        [
          Io.send_to t.source Message.Who_is_primary;
          Set_timer (K_nack_escalate seq, 2. *. t.cfg.nack_timeout);
        ]
      end
      else abandon t ~now seq

(* --- silence ---------------------------------------------------------- *)

let arm_silence t = t.arm_silence

let heard t ~now =
  t.last_heard <- now;
  arm_silence t

(* MaxIT passed with nothing heard: ask the nearest logger what the
   latest packet is, in case we missed everything. *)
let silence t ~now ~highest =
  let ask =
    match logger_at t 0 with
    | Some logger when highest > 0 || t.last_heard > 0. ->
        t.nacks_sent <- t.nacks_sent + 1;
        if Trace.is_on t.sink then
          trace t ~now
            (Trace.Nack_sent { dest = logger; level = 0; seqs = [] });
        [ Io.send_to logger (Message.Nack { seqs = [] }) ]
    | _ -> []
  in
  if Trace.is_on t.sink then
    trace t ~now (Trace.Silence { elapsed = now -. t.last_heard });
  Notify (N_silence (now -. t.last_heard)) :: ask
