module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Trace = Lbrm_sim.Trace
module Topo = Lbrm_sim.Topo
module Rng = Lbrm_util.Rng
module Gap_tracker = Lbrm_util.Gap_tracker

type msg =
  | Data of { seq : int; payload : string }
  | Session of { highest : int }
  | Request of { seq : int }
  | Repair of { seq : int; payload : string }

let size_of = function
  | Data { payload; _ } -> 28 + 1 + 4 + 4 + String.length payload
  | Session _ -> 28 + 1 + 4
  | Request _ -> 28 + 1 + 4
  | Repair { payload; _ } -> 28 + 1 + 4 + 4 + String.length payload

type config = {
  session_interval : float;
  c1 : float;
  c2 : float;
  d1 : float;
  d2 : float;
  request_backoff : float;
}

let default_config =
  {
    session_interval = 1.;
    c1 = 1.;
    c2 = 1.;
    d1 = 1.;
    d2 = 1.;
    request_backoff = 2.;
  }

type member = {
  node : Topo.node_id;
  store : (int, string) Hashtbl.t;
  tracker : Gap_tracker.t;
  (* pending own-request timers, with the current backoff multiple *)
  req_timers : (int, Engine.timer * float) Hashtbl.t;
  rep_timers : (int, Engine.timer) Hashtbl.t;
  detect_at : (int, float) Hashtbl.t;
  dist_to_source : float;
}

type t = {
  net : msg Net.t;
  trace : Trace.t;
  cfg : config;
  group : int;
  source : Topo.node_id;
  rng : Rng.t;
  members : (Topo.node_id, member) Hashtbl.t;
  mutable next_seq : int;
  source_store : (int, string) Hashtbl.t;
  (* global per-seq multicast counts, for duplicate accounting *)
  req_counts : (int, int) Hashtbl.t;
  rep_counts : (int, int) Hashtbl.t;
}

let engine t = Net.engine t.net
let now t = Engine.now (engine t)

let count tbl seq =
  let c = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl seq) in
  Hashtbl.replace tbl seq c;
  c

(* --- member behaviour -------------------------------------------------- *)

let deliver t m seq payload ~recovered =
  if not (Hashtbl.mem m.store seq) then begin
    Hashtbl.replace m.store seq payload;
    if recovered then begin
      Trace.incr t.trace "srm.recovered";
      match Hashtbl.find_opt m.detect_at seq with
      | Some at ->
          Trace.observe t.trace "srm.recovery_latency" (now t -. at);
          Hashtbl.remove m.detect_at seq
      | None -> ()
    end
  end

let cancel_request t m seq =
  match Hashtbl.find_opt m.req_timers seq with
  | Some (timer, _) ->
      Engine.cancel (engine t) timer;
      Hashtbl.remove m.req_timers seq
  | None -> ()

let cancel_repair t m seq =
  match Hashtbl.find_opt m.rep_timers seq with
  | Some timer ->
      Engine.cancel (engine t) timer;
      Hashtbl.remove m.rep_timers seq
  | None -> ()

(* Schedule (or re-schedule after suppression) this member's repair
   request for [seq]: uniform in [c1*d, (c1+c2)*d] scaled by the current
   backoff multiple, d being the one-way distance to the source. *)
let rec schedule_request t m ~seq ~backoff =
  cancel_request t m seq;
  let d = m.dist_to_source in
  let delay =
    backoff *. ((t.cfg.c1 *. d) +. Rng.float t.rng (t.cfg.c2 *. d))
  in
  let timer =
    Engine.schedule (engine t) ~delay (fun () ->
        Hashtbl.remove m.req_timers seq;
        if not (Hashtbl.mem m.store seq) then begin
          if count t.req_counts seq > 1 then
            Trace.incr t.trace "srm.dup_request";
          Trace.incr t.trace "srm.request_mcast";
          Net.multicast t.net ~src:m.node ~group:t.group (Request { seq });
          (* Re-arm with backoff in case neither request nor repair
             survives. *)
          schedule_request t m ~seq ~backoff:(backoff *. t.cfg.request_backoff)
        end)
  in
  Hashtbl.replace m.req_timers seq (timer, backoff)

let note_missing t m seqs =
  List.iter
    (fun seq ->
      if not (Hashtbl.mem m.detect_at seq) then
        Hashtbl.replace m.detect_at seq (now t);
      schedule_request t m ~seq ~backoff:1.)
    seqs

let schedule_repair t m ~seq ~requester =
  if (not (Hashtbl.mem m.rep_timers seq)) && Hashtbl.mem m.store seq then begin
    let d = Net.one_way_delay t.net m.node requester in
    let delay = (t.cfg.d1 *. d) +. Rng.float t.rng (t.cfg.d2 *. d) in
    let timer =
      Engine.schedule (engine t) ~delay (fun () ->
          Hashtbl.remove m.rep_timers seq;
          match Hashtbl.find_opt m.store seq with
          | Some payload ->
              if count t.rep_counts seq > 1 then
                Trace.incr t.trace "srm.dup_repair";
              Trace.incr t.trace "srm.repair_mcast";
              Net.multicast t.net ~src:m.node ~group:t.group
                (Repair { seq; payload })
          | None -> ())
    in
    Hashtbl.replace m.rep_timers seq timer
  end

let member_handle t m ~src msg =
  match msg with
  | Data { seq; payload } -> (
      deliver t m seq payload ~recovered:(Hashtbl.mem m.detect_at seq);
      cancel_request t m seq;
      cancel_repair t m seq;
      match Gap_tracker.note m.tracker seq with
      | Gap_opened gaps -> note_missing t m gaps
      | First | In_order | Fills_gap | Duplicate -> ())
  | Session { highest } ->
      note_missing t m (Gap_tracker.note_exists m.tracker highest)
  | Request { seq } ->
      Trace.incr t.trace "srm.member_msgs";
      if Hashtbl.mem m.store seq then schedule_repair t m ~seq ~requester:src
      else begin
        (* Someone else asked first: suppress our own pending request by
           backing it off. *)
        match Hashtbl.find_opt m.req_timers seq with
        | Some (_, backoff) ->
            schedule_request t m ~seq
              ~backoff:(backoff *. t.cfg.request_backoff)
        | None ->
            (* We did not know it was missing yet. *)
            if
              (match Gap_tracker.highest m.tracker with
              | Some hi -> seq > hi
              | None -> true)
            then note_missing t m (Gap_tracker.note_exists m.tracker seq)
      end
  | Repair { seq; payload } ->
      Trace.incr t.trace "srm.member_msgs";
      deliver t m seq payload ~recovered:true;
      ignore (Gap_tracker.note m.tracker seq);
      cancel_request t m seq;
      cancel_repair t m seq

(* --- deployment --------------------------------------------------------- *)

let deploy ~net ~trace ~config ~group ~source ~members =
  let t =
    {
      net;
      trace;
      cfg = config;
      group;
      source;
      rng = Rng.split (Engine.rng (Net.engine net));
      members = Hashtbl.create 64;
      next_seq = 0;
      source_store = Hashtbl.create 64;
      req_counts = Hashtbl.create 64;
      rep_counts = Hashtbl.create 64;
    }
  in
  (* Source: answers requests immediately (it always has the data) and
     multicasts fixed-interval session messages — the "fixed heartbeat"
     style loss detection wb relies on (§6). *)
  Net.join net ~group source;
  Net.set_handler net source (fun ~src:_ msg ->
      match msg with
      | Request { seq } -> (
          Trace.incr trace "srm.member_msgs";
          match Hashtbl.find_opt t.source_store seq with
          | Some payload ->
              if count t.rep_counts seq > 1 then
                Trace.incr trace "srm.dup_repair";
              Trace.incr trace "srm.repair_mcast";
              Net.multicast net ~src:source ~group (Repair { seq; payload })
          | None -> ())
      | Data _ | Session _ | Repair _ -> ());
  Engine.every (Net.engine net) ~period:config.session_interval (fun () ->
      if t.next_seq > 0 then
        Net.multicast net ~src:source ~group (Session { highest = t.next_seq }));
  List.iter
    (fun node ->
      let m =
        {
          node;
          store = Hashtbl.create 64;
          tracker = Gap_tracker.create ();
          req_timers = Hashtbl.create 8;
          rep_timers = Hashtbl.create 8;
          detect_at = Hashtbl.create 8;
          dist_to_source = Net.one_way_delay net node source;
        }
      in
      Hashtbl.replace t.members node m;
      Net.join net ~group node;
      Net.set_handler net node (fun ~src msg ->
          member_handle t m ~src msg))
    members;
  t

let send t payload =
  t.next_seq <- t.next_seq + 1;
  Hashtbl.replace t.source_store t.next_seq payload;
  Net.multicast t.net ~src:t.source ~group:t.group
    (Data { seq = t.next_seq; payload })

let delivered_count t node =
  match Hashtbl.find_opt t.members node with
  | Some m -> Hashtbl.length m.store
  | None -> 0

let all_have t seq =
  Hashtbl.fold (fun _ m acc -> acc && Hashtbl.mem m.store seq) t.members true
