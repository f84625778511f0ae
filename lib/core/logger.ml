module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
module Gap_tracker = Lbrm_util.Gap_tracker
module Rng = Lbrm_util.Rng
open Io

type address = Message.address
type seq = Seqno.t

type request_window = {
  mutable count : int;
  mutable multicast_done : bool;
}

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  source : address;
  mutable parent : address option;
  mutable replicas : address list;
  mutable succ : address option; (* ring replication: next hop, None = tail *)
  store : Log_store.t;
  mutable archive : Archive.t option; (* disk tier fed by store eviction *)
  mutable archive_write_errors : int;
  mutable archive_reads : int; (* retransmissions served from disk *)
  mutable floor : seq; (* tiered memory+disk contiguous floor (archive only) *)
  tracker : Gap_tracker.t; (* what this logger knows exists *)
  recovered_here : (seq, unit) Hashtbl.t; (* packets we had to pull *)
  pending_up : (seq, address list ref) Hashtbl.t; (* awaiting parent *)
  uplink_asked : (seq, float) Hashtbl.t; (* last time we asked the parent *)
  uplink_retries : (seq, int) Hashtbl.t; (* unanswered parent asks per seq *)
  requests : (seq, request_window) Hashtbl.t;
  replica_acked : (address, seq) Hashtbl.t;
  retry_armed : (seq, unit) Hashtbl.t; (* seqs with a K_replica_retry timer *)
  designated : (int, unit) Hashtbl.t; (* epochs we ack *)
  rng : Rng.t;
  mutable requests_served : int;
  mutable remulticasts : int;
  mutable uplink_nacks : int;
  mutable on_rchannel : bool; (* subscribed to the retransmission channel *)
  out : Io.out; (* this machine's action buffer *)
}

(* Advance the tiered contiguous floor across memory and disk.  Only
   meaningful with an archive attached; the archive's persisted
   low-water mark gives the starting jump, then membership in either
   tier extends it.  Monotone: a floor never moves backward, and after
   a restart it resumes from what the archive durably recorded — never
   from the first post-rejoin sequence. *)
let advance_floor t =
  match t.archive with
  | None -> ()
  | Some a ->
      let lw = Archive.low_water a in
      if lw > t.floor then t.floor <- lw;
      let progressing = ref true in
      while !progressing do
        let next = t.floor + 1 in
        if Log_store.mem t.store next || Archive.mem a next then
          t.floor <- next
        else progressing := false
      done

(* The durability floor this logger reports (Log_ack / Replica_ack /
   Ring_ack / Quorum_ack / Replica_status).  Without a disk tier it is
   the in-memory contiguous mark, as before; with one it is the tiered
   floor, which survives restarts via the archive's low-water mark. *)
let durable_floor t =
  match t.archive with
  | None -> Option.value ~default:0 (Log_store.highest_contiguous t.store)
  | Some _ -> t.floor

(* One [Fs_error] from the disk tier disables it in place: the logger
   counts it, traces it, and keeps serving from memory.  A failure the
   fs deferred (a group commit's fsync) surfaces at whichever archive
   call comes next, a spill, a lookup or a compaction. *)
let degrade t ~at ~seq =
  t.archive <- None;
  t.archive_write_errors <- t.archive_write_errors + 1;
  if Trace.is_on t.sink then
    Trace.emit t.sink ~at ~node:t.self (Trace.Archive_degraded { seq })

let create cfg ~self ~source ?parent ?(replicas = []) ?succ ?archive ~rng
    ?(sink = Trace.null ()) () =
  (* The eviction hook closes over the logger record (created below) so
     a failing disk tier can be disabled in place. *)
  let cell = ref None in
  let on_evict =
    match archive with
    | None -> None
    | Some a ->
        Some
          (fun (e : Log_store.entry) ->
            match !cell with
            | None -> ()
            | Some t -> (
                match t.archive with
                | None -> () (* disk tier already degraded *)
                | Some _ -> (
                    let sealed_before = Archive.rotations a in
                    try
                      Archive.append a ~seq:e.seq ~epoch:e.epoch
                        ~payload:e.payload;
                      if
                        Archive.rotations a > sealed_before
                        && Trace.is_on t.sink
                      then
                        Trace.emit t.sink ~at:e.logged_at ~node:t.self
                          (Trace.Segment_rotated
                             { segment = Archive.last_sealed a })
                    with Archive.Fs_error _ ->
                      degrade t ~at:e.logged_at ~seq:e.seq)))
  in
  let t =
    {
      cfg;
      self;
      sink;
      source;
      parent;
      replicas;
      succ;
      store = Log_store.create ?on_evict ~retention:cfg.retention ();
      archive;
      archive_write_errors = 0;
      archive_reads = 0;
      floor = 0;
    tracker = Gap_tracker.create ();
    recovered_here = Hashtbl.create 16;
    pending_up = Hashtbl.create 16;
    uplink_asked = Hashtbl.create 16;
    uplink_retries = Hashtbl.create 16;
    requests = Hashtbl.create 32;
    replica_acked = Hashtbl.create 4;
    retry_armed = Hashtbl.create 16;
    designated = Hashtbl.create 4;
    rng;
      requests_served = 0;
      remulticasts = 0;
      uplink_nacks = 0;
      on_rchannel = false;
      out = Io.out ();
    }
  in
  cell := Some t;
  advance_floor t;
  t

let is_primary t = t.parent = None
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev
let reply t dst msg = Io.push t.out (Io.send_to dst msg)
let store t = t.store
let self t = t.self
let requests_served t = t.requests_served
let remulticasts t = t.remulticasts
let uplink_nacks t = t.uplink_nacks
let archive_write_errors t = t.archive_write_errors
let archive_reads t = t.archive_reads
let archive_enabled t = match t.archive with Some _ -> true | None -> false
let successor t = t.succ

(* Whole-segment reclamation: drop every sealed segment wholly below
   [floor] (the retention policy's durability floor).  Returns the
   number of segments reclaimed. *)
let compact_archive t ~now ~floor =
  match t.archive with
  | None -> 0
  | Some a -> (
      match Archive.compact a ~floor with
      | removed ->
          List.iter
            (fun id ->
              if Trace.is_on t.sink then
                trace t ~now (Trace.Segment_compacted { segment = id }))
            removed;
          List.length removed
      | exception Archive.Fs_error _ ->
          degrade t ~at:now ~seq:floor;
          0)

let designated_for t =
  Hashtbl.fold (fun e () acc -> e :: acc) t.designated []
  |> List.sort Int.compare

(* --- upward recovery (secondary's own completeness) ------------------- *)

(* One upward request per seq per timeout window, whether triggered by
   our own gap-chase or by a receiver's NACK — this is what keeps the
   paper's "one retransmission request per site" true. *)
let ask_parent t ~now seqs =
  let fresh =
    List.filter
      (fun s ->
        match Hashtbl.find_opt t.uplink_asked s with
        | Some at -> now -. at >= 0.9 *. t.cfg.uplink_nack_timeout
        | None -> true)
      seqs
  in
  match (t.parent, fresh) with
  | None, _ | _, [] -> ()
  | Some parent, fresh ->
      List.iter (fun s -> Hashtbl.replace t.uplink_asked s now) fresh;
      List.iter
        (fun seqs ->
          t.uplink_nacks <- t.uplink_nacks + 1;
          if Trace.is_on t.sink then
            trace t ~now (Trace.Uplink_nack { dest = parent; seqs });
          reply t parent (Message.Nack { seqs }))
        (Lbrm_wire.Codec.nack_batches fresh);
      let timeout = t.cfg.uplink_nack_timeout in
      List.iter
        (fun s -> Io.push t.out (Set_timer (K_uplink_nack s, timeout)))
        fresh

let note_gaps t newly_missing =
  (* Pull our own losses from the parent so the site log stays complete;
     a short delay batches bursts (and is the paper's "only one request
     to the primary originates from each site").  With a retransmission
     channel configured, subscribe there first and only chase the parent
     for packets the channel no longer carries. *)
  match newly_missing with
  | [] -> ()
  | _ ->
      let delay =
        match t.cfg.rchannel_group with
        | None ->
            (* 2.3.2: when statistical acking runs and t_wait exceeds
               h_min, give the source its chance to re-multicast before
               asking the parent (t_wait - h_min after the revealing
               heartbeat). *)
            let statack_grace =
              if t.cfg.stat_ack_enabled then
                Float.max 0. (t.cfg.t_wait_init -. t.cfg.h_min)
              else 0.
            in
            t.cfg.nack_delay +. statack_grace
        | Some channel ->
            t.on_rchannel <- true;
            Io.push t.out (Join channel);
            Config.rchannel_window t.cfg +. t.cfg.nack_delay
      in
      List.iter
        (fun s -> Io.push t.out (Set_timer (K_uplink_nack s, delay)))
        newly_missing

(* --- serving requests -------------------------------------------------- *)

let request_window t seq =
  match Hashtbl.find_opt t.requests seq with
  | Some w -> w
  | None ->
      let w = { count = 0; multicast_done = false } in
      Hashtbl.replace t.requests seq w;
      w

let retrans_msg (e : Log_store.entry) =
  Message.Retrans
    { seq = e.seq; epoch = e.epoch; payload = Payload.of_string e.payload }

(* In-memory store first, disk archive second.  The payload string the
   archive hands back is the exact bytes read from the segment file;
   [retrans_msg] wraps it as a view, so nothing on this path copies. *)
let lookup t ~now seq =
  match Log_store.get t.store ~now seq with
  | Some e -> Some e
  | None -> (
      match t.archive with
      | None -> None
      | Some a -> (
          match Archive.find a seq with
          | Some (epoch, payload) ->
              t.archive_reads <- t.archive_reads + 1;
              if Trace.is_on t.sink then
                trace t ~now (Trace.Archive_read { seq });
              Some { Log_store.seq; epoch; payload; logged_at = now }
          | None -> None
          | exception Archive.Fs_error _ ->
              degrade t ~at:now ~seq;
              None))

(* The two shapes a repair takes: unicast to one requester, or a
   site-scoped re-multicast (§2.2.1). *)
let unicast_repair t ~now dest (e : Log_store.entry) =
  if Trace.is_on t.sink then
    trace t ~now (Trace.Retrans { seq = e.seq; mode = Trace.R_unicast dest });
  Io.send_to dest (retrans_msg e)

let site_repair t ~now (e : Log_store.entry) =
  t.remulticasts <- t.remulticasts + 1;
  if Trace.is_on t.sink then
    trace t ~now (Trace.Retrans { seq = e.seq; mode = Trace.R_site_mcast });
  Io.send ~ttl:t.cfg.site_ttl ~group:t.cfg.group (retrans_msg e)

(* Decide unicast vs site-scoped multicast for a repair (§2.2.1): a
   *secondary* logger re-multicasts into its site when enough requests
   for the same packet arrive within a window, or — since its own loss
   suggests the whole site lost the packet — at a lower threshold for
   packets it had to recover.  The primary never scope-multicasts:
   requesters are spread across sites, and mass loss at the source's
   side is the statistical-acknowledgement machinery's job (§2.3). *)
let serve t ~now ~requester (e : Log_store.entry) =
  let w = request_window t e.seq in
  w.count <- w.count + 1;
  let threshold =
    if Hashtbl.mem t.recovered_here e.seq then
      Stdlib.max 2 (t.cfg.remcast_request_threshold / 2)
    else t.cfg.remcast_request_threshold
  in
  t.requests_served <- t.requests_served + 1;
  if w.count = 1 then
    Io.push t.out (Set_timer (K_remcast e.seq, t.cfg.remcast_window));
  if (not (is_primary t)) && w.count >= threshold && not w.multicast_done
  then begin
    w.multicast_done <- true;
    Io.push t.out (site_repair t ~now e);
    Io.push t.out (Set_timer (K_remcast e.seq, t.cfg.remcast_window))
  end
  else Io.push t.out (unicast_repair t ~now requester e)

let on_nack t ~now ~src seqs =
  match seqs with
  | [] -> (
      (* Latest query. *)
      match Log_store.newest t.store with
      | Some e ->
          t.requests_served <- t.requests_served + 1;
          Io.push t.out (unicast_repair t ~now src e)
      | None -> ())
  | seqs ->
      List.iter
        (fun seq ->
          match lookup t ~now seq with
          | Some e -> serve t ~now ~requester:src e
          | None ->
              (* We do not have it either: remember the requester and
                 chase the packet up the hierarchy. *)
              let waiters =
                match Hashtbl.find_opt t.pending_up seq with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add t.pending_up seq l;
                    l
              in
              if not (List.mem src !waiters) then waiters := src :: !waiters;
              if List.length !waiters = 1 then ask_parent t ~now [ seq ])
        seqs

(* --- logging ----------------------------------------------------------- *)

let maybe_leave_channel t =
  match t.cfg.rchannel_group with
  | Some channel
    when t.on_rchannel && Gap_tracker.missing_count t.tracker = 0 ->
      t.on_rchannel <- false;
      Io.push t.out (Leave channel)
  | _ -> ()

(* The one logging step every path shares — data, repairs, deposits,
   replica updates and ring forwards: store, trace, advance the floor,
   and chase whatever gap the seq reveals.  [payload] arrives as a view
   over the receive path; the store owns its entries, so copy out
   exactly once here. *)
let ingest t ~now ~seq ~epoch ~payload ~recovered =
  if
    Log_store.add t.store ~now ~seq ~epoch ~payload:(Payload.to_owned payload)
    && Trace.is_on t.sink
  then trace t ~now (Trace.Log_write { seq; recovered });
  advance_floor t;
  Hashtbl.remove t.uplink_asked seq;
  Hashtbl.remove t.uplink_retries seq;
  if recovered then Hashtbl.replace t.recovered_here seq ();
  match Gap_tracker.note t.tracker seq with
  | Gap_opened gaps -> note_gaps t gaps
  | Fills_gap -> maybe_leave_channel t
  | First | In_order | Duplicate -> ()

(* Serve the requesters that were waiting on [seq] from upstream. *)
let satisfy_waiters t ~now seq =
  match Log_store.get t.store ~now seq with
  | None -> ()
  | Some e -> (
      match Hashtbl.find_opt t.pending_up seq with
      | None -> ()
      | Some waiters ->
          Hashtbl.remove t.pending_up seq;
          let ws = !waiters in
          t.requests_served <- t.requests_served + List.length ws;
          Io.push t.out (Cancel_timer (K_uplink_nack seq));
          if
            (not (is_primary t))
            && List.length ws >= t.cfg.remcast_request_threshold
          then Io.push t.out (site_repair t ~now e)
          else
            List.iter
              (fun wtr -> Io.push t.out (unicast_repair t ~now wtr e))
              ws)

(* [Data], [Heartbeat] and [Retrans] (from our parent, or a sibling's
   site multicast): log it, stat-ack if designated, and pass it on to
   whoever is waiting. *)
let on_data t ~now ~seq ~epoch ~payload ~recovered =
  ingest t ~now ~seq ~epoch ~payload ~recovered;
  if Hashtbl.mem t.designated epoch then
    reply t t.source (Message.Stat_ack { epoch; seq; logger = t.self });
  satisfy_waiters t ~now seq

(* --- primary duties ---------------------------------------------------- *)

let replica_seq t r =
  Option.value ~default:0 (Hashtbl.find_opt t.replica_acked r)

let best_replica_seq t =
  (* §2.2.3: the replica sequence number reported to the source is the
     most up-to-date replica's contiguous mark; with no replicas the
     primary's own mark stands in. *)
  let own = durable_floor t in
  match t.replicas with
  | [] -> own
  | replicas ->
      List.fold_left (fun acc r -> Seqno.max acc (replica_seq t r)) 0 replicas

(* The mark every replica holds: the lowest acked floor. *)
let replicated_seq t =
  match t.replicas with
  | [] -> 0
  | r :: rest ->
      List.fold_left
        (fun acc r ->
          let s = replica_seq t r in
          if Seqno.(s < acc) then s else acc)
        (replica_seq t r) rest

let descending a b = Seqno.compare b a

(* A Replica_ack raised the replicated mark above [from]: the retry
   timers of the seqs it now covers would only fire to find no laggard,
   so cancel them (and only timers that are armed).  The cost is the
   smaller of the newly covered span and the armed set: a laggard
   catching up one seq per ack walks its span, while a first ack after
   a long silence or a promotion scans the armed set instead. *)
let cancel_replicated t ~from =
  let floor = replicated_seq t in
  let span = Seqno.diff floor from in
  let cancel seq =
    if Hashtbl.mem t.retry_armed seq then begin
      Hashtbl.remove t.retry_armed seq;
      Io.push t.out (Cancel_timer (K_replica_retry seq))
    end
  in
  (* Cancels go out highest seq first on either path; the armed set is
     sorted only when two or more of its seqs settle. *)
  let armed = Hashtbl.length t.retry_armed in
  if span <= 0 || armed = 0 then ()
  else if span <= armed then
    for i = span downto 1 do
      cancel (Seqno.add from i)
    done
  else
    match
      Hashtbl.fold
        (fun seq () acc -> if Seqno.(seq <= floor) then seq :: acc else acc)
        t.retry_armed []
    with
    | ([] | [ _ ]) as seqs -> List.iter cancel seqs
    | seqs -> List.iter cancel (List.sort descending seqs)

let log_ack t =
  Message.Log_ack
    { primary_seq = durable_floor t; replica_seq = best_replica_seq t }

(* The one replica fan-out, run by every deposit (fresh or not: the
   primary may have logged [seq] off the data group first) and by the
   retry timer.  Send [seq] to every replica that has not acked it and
   (re)arm the retry until they all have it (replica failure is
   tolerated — Log_ack reports the best replica, and fail-over picks
   that one).  The [~now:0.] lookup never expires an entry under
   [Keep_for]. *)
let replicate t seq =
  let laggards =
    List.filter (fun r -> Seqno.(replica_seq t r < seq)) t.replicas
  in
  match (laggards, Log_store.get t.store ~now:0. seq) with
  | [], _ | _, None -> ()
  | _, Some e ->
      let payload = Payload.of_string e.payload in
      let update = Message.Replica_update { seq; epoch = e.epoch; payload } in
      Hashtbl.replace t.retry_armed seq ();
      List.iter (fun r -> reply t r update) laggards;
      Io.push t.out (Set_timer (K_replica_retry seq, t.cfg.deposit_timeout))

(* Logging and serving waiters come first; the ack and the replica
   fan-out go out ahead of their actions.  The same holds for the
   member duties below. *)
let on_deposit t ~now ~seq ~epoch ~payload =
  let at = Io.length t.out in
  ingest t ~now ~seq ~epoch ~payload ~recovered:false;
  satisfy_waiters t ~now seq;
  let from = Io.length t.out in
  reply t t.source (log_ack t);
  replicate t seq;
  Io.hoist t.out ~at ~from

(* --- ring and quorum member duties -------------------------------------- *)

(* Ring member: log, then pass the deposit down the chain; the tail
   acks the source with its contiguous floor — which, because every
   upstream member logged before forwarding, is the whole ring's
   durability mark.  Duplicates are forwarded too: a source retry
   re-walks the chain and repairs whatever a downstream member lost.
   A dropped forward upstream shows as a gap here, which [ingest]
   chases through the parent so the chain self-heals even before the
   source's retry re-walks it. *)
let on_ring_forward t ~now ~seq ~epoch ~payload =
  let at = Io.length t.out in
  ingest t ~now ~seq ~epoch ~payload ~recovered:false;
  satisfy_waiters t ~now seq;
  let from = Io.length t.out in
  (match t.succ with
  | Some next ->
      if Trace.is_on t.sink then
        trace t ~now (Trace.Ring_forwarded { seq; dest = next });
      reply t next (Message.Ring_forward { seq; epoch; payload })
  | None ->
      reply t t.source (Message.Ring_ack { seq = durable_floor t }));
  Io.hoist t.out ~at ~from

(* Quorum member: every member (primary or not) logs the multicast
   deposit and acks its own contiguous floor straight back to the
   source, which counts floors toward the majority.  A lost deposit
   multicast shows as a gap, chased through the parent so this
   member's floor (and thus the quorum) keeps moving. *)
let on_quorum_deposit t ~now ~seq ~epoch ~payload =
  let at = Io.length t.out in
  ingest t ~now ~seq ~epoch ~payload ~recovered:false;
  let floor = durable_floor t in
  if Trace.is_on t.sink then trace t ~now (Trace.Quorum_acked { seq; floor });
  let from = Io.length t.out in
  reply t t.source (Message.Quorum_ack { seq = floor });
  Io.hoist t.out ~at ~from;
  satisfy_waiters t ~now seq

let on_replica_update t ~now ~src ~seq ~epoch ~payload =
  let at = Io.length t.out in
  ingest t ~now ~seq ~epoch ~payload ~recovered:false;
  satisfy_waiters t ~now seq;
  let from = Io.length t.out in
  reply t src (Message.Replica_ack { seq = durable_floor t });
  Io.hoist t.out ~at ~from

(* --- dispatch ------------------------------------------------------------ *)

let dispatch t ~now ~src msg =
  match msg with
  | Message.Data { seq; epoch; payload } ->
      on_data t ~now ~seq ~epoch ~payload ~recovered:false
  | Message.Heartbeat { seq; epoch; payload = Some payload; _ } when seq > 0 ->
      on_data t ~now ~seq ~epoch ~payload ~recovered:false
  | Message.Heartbeat { seq = 0; _ } -> ()
  | Message.Heartbeat { seq; _ } ->
      note_gaps t (Gap_tracker.note_exists t.tracker seq)
  | Message.Nack { seqs } -> on_nack t ~now ~src seqs
  | Message.Retrans { seq; epoch; payload } ->
      on_data t ~now ~seq ~epoch ~payload ~recovered:true
  | Message.Log_deposit { seq; epoch; payload } -> (
      match t.cfg.replication with
      | Config.R_quorum -> on_quorum_deposit t ~now ~seq ~epoch ~payload
      | Config.R_primary | Config.R_ring ->
          if is_primary t then on_deposit t ~now ~seq ~epoch ~payload)
  | Message.Ring_forward { seq; epoch; payload } -> (
      match t.cfg.replication with
      | Config.R_ring -> on_ring_forward t ~now ~seq ~epoch ~payload
      | Config.R_primary | Config.R_quorum -> ())
  | Message.Ring_set { succ; head } ->
      (* Ring repair: adopt the new successor and re-home on the new
         head (demoting an old head that survived with a lower floor). *)
      t.succ <- succ;
      t.parent <- (if head = t.self then None else Some head)
  | Message.Replica_update { seq; epoch; payload } ->
      on_replica_update t ~now ~src ~seq ~epoch ~payload
  | Message.Replica_ack { seq } ->
      let from = replicated_seq t in
      if Seqno.(seq > replica_seq t src) then
        Hashtbl.replace t.replica_acked src seq;
      if is_primary t then reply t t.source (log_ack t);
      cancel_replicated t ~from
  | Message.Replica_query ->
      reply t src (Message.Replica_status { seq = durable_floor t })
  | Message.Promote { replicas } ->
      t.parent <- None;
      t.replicas <- replicas
  | Message.Primary_is { logger } ->
      (* Answer to the Who_is_primary we send after repeated unanswered
         uplink NACKs: our parent is dead and the primary moved.
         Re-home; the armed K_uplink_nack timers will re-ask the new
         parent. *)
      if logger = t.self then t.parent <- None
      else if not (is_primary t) then t.parent <- Some logger
  | Message.Acker_select { epoch; p_ack } ->
      if (not (is_primary t)) && Rng.bernoulli t.rng ~p:p_ack then begin
        Hashtbl.replace t.designated epoch ();
        (* Drop stale epochs. *)
        Hashtbl.iter
          (fun e () -> if e < epoch - 1 then Hashtbl.remove t.designated e)
          (Hashtbl.copy t.designated);
        reply t t.source (Message.Acker_reply { epoch; logger = t.self })
      end
  | Message.Probe { round; p } ->
      if (not (is_primary t)) && Rng.bernoulli t.rng ~p then
        reply t t.source (Message.Probe_reply { round; logger = t.self })
  | Message.Discovery_query { nonce } ->
      reply t src (Message.Discovery_reply { nonce; logger = t.self })
  | Message.Replica_status _ | Message.Log_ack _ | Message.Acker_reply _
  | Message.Stat_ack _ | Message.Probe_reply _ | Message.Discovery_reply _
  | Message.Who_is_primary | Message.Ring_ack _ | Message.Quorum_ack _ ->
      ()

let handle_message t ~now ~src msg =
  Io.begin_call t.out;
  dispatch t ~now ~src msg;
  t.out

let handle_timer t ~now key =
  Io.begin_call t.out;
  (match key with
  | K_uplink_nack seq ->
      (* Either our own gap-chase delay expired or a parent request went
         unanswered: (re)try if the packet is still absent. *)
      if Log_store.mem t.store seq then begin
        Hashtbl.remove t.uplink_asked seq;
        Hashtbl.remove t.uplink_retries seq
      end
      else begin
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.uplink_retries seq) in
        Hashtbl.replace t.uplink_retries seq n;
        (* The parent has been silent for a whole retry budget: it may
           be dead and replaced (§2.2.3).  Ask the source who the
           primary is now, ahead of the retry; every further budget's
           worth of silence asks again. *)
        if
          (not (is_primary t))
          && n mod Stdlib.max 1 t.cfg.nack_retry_limit = 0
        then reply t t.source Message.Who_is_primary;
        ask_parent t ~now [ seq ]
      end
  | K_remcast seq -> Hashtbl.remove t.requests seq
  | K_replica_retry seq ->
      Hashtbl.remove t.retry_armed seq;
      replicate t seq
  | _ -> ());
  t.out
