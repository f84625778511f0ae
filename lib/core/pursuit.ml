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
  last_heard : float array;
      (* one slot: every arrival writes it unboxed, with no write barrier *)
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
    (* A receiver pursues a handful of seqs at a time; the table grows
       for a burst.  Starting small keeps a thousand-receiver deployment
       cheap to build. *)
    pursuits = Hashtbl.create 8;
    by_level = Hashtbl.create 4;
    last_heard = [| 0. |];
    arm_silence = Set_timer (K_silence, cfg.Config.max_it);
    nacks_sent = 0;
    gave_up = 0;
  }

let loggers t = t.loggers
let set_loggers t loggers = if loggers <> [] then t.loggers <- loggers
let logger_at t level = List.nth_opt t.loggers level
let last_heard t = t.last_heard.(0)
let nacks_sent t = t.nacks_sent
let gave_up t = t.gave_up
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

(* In-order arrivals close nothing: skip the hash when nothing is
   pursued. *)
let close t out ~now seq =
  if Hashtbl.length t.pursuits = 0 then false
  else
    match Hashtbl.find_opt t.pursuits seq with
    | None -> false
    | Some p ->
        Hashtbl.remove t.pursuits seq;
        Io.push out (Cancel_timer (K_nack_escalate seq));
        Io.push out
          (Notify (N_recovered { seq; latency = now -. p.detected_at }));
        true

let abandon t out ~now seq =
  Hashtbl.remove t.pursuits seq;
  t.write_off seq;
  t.gave_up <- t.gave_up + 1;
  if Trace.is_on t.sink then trace t ~now (Trace.Gave_up { seq });
  Io.push out (Cancel_timer (K_nack_escalate seq));
  Io.push out (Notify (N_gave_up seq))

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

let escalate t out ~now seq =
  match Hashtbl.find_opt t.pursuits seq with
  | None -> ()
  | Some p ->
      if t.missing seq = 0 then Hashtbl.remove t.pursuits seq
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

(* --- silence ---------------------------------------------------------- *)

let arm_silence t = t.arm_silence

let heard t ~now =
  t.last_heard.(0) <- now;
  arm_silence t

(* MaxIT passed with nothing heard: ask the nearest logger what the
   latest packet is, in case we missed everything. *)
let silence t out ~now ~highest =
  let ask =
    match logger_at t 0 with
    | Some logger when highest > 0 || last_heard t > 0. ->
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
    ask
