module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
open Io

type address = Message.address
type seq = Seqno.t

type event =
  | E_release of seq
  | E_suspected
  | E_promoted of { primary : address; floor : seq }
  | E_kept of address

type failover =
  | Normal
  | Querying of { mutable statuses : (address * seq) list; round : int }

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  retained_above : seq -> int; (* owner's replay-table census, for traces *)
  mutable primary : address; (* deposit target: primary logger / ring head *)
  mutable replicas : address list; (* remaining members, ring order *)
  retries : (seq, int) Hashtbl.t;
  (* Quorum member tracking lives in parallel fixed arrays (not a
     Hashtbl) so the per-ack floor bookkeeping never allocates. *)
  mutable members : address array;
  mutable floors : int array;
  mutable scratch : int array; (* sorted copy of [floors], reused *)
  mutable q : int; (* majority threshold ⌈(n+1)/2⌉ *)
  mutable durable : seq;
  mutable acked : seq;
  mutable failover : failover;
  mutable failovers_done : int;
}

let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev

let[@lint.hot] rec member_index (members : address array) (m : address) i =
  if i >= Array.length members then -1
  else if Int.equal (Array.unsafe_get members i) m then i
  else member_index members m (i + 1)

(* (Re)build the quorum member arrays, carrying over floors already
   learned for surviving members. *)
let set_members t ~primary ~replicas =
  t.primary <- primary;
  t.replicas <- replicas;
  match t.cfg.replication with
  | Config.R_primary | Config.R_ring -> ()
  | Config.R_quorum ->
      let members = Array.of_list (primary :: replicas) in
      let n = Array.length members in
      let floors = Array.make n 0 in
      Array.iteri
        (fun i m ->
          let j = member_index t.members m 0 in
          if j >= 0 then floors.(i) <- t.floors.(j))
        members;
      t.members <- members;
      t.floors <- floors;
      t.scratch <- Array.make n 0;
      t.q <- (n + 2) / 2

let create cfg ~self ~primary ?(replicas = []) ~retained_above
    ?(sink = Trace.null ()) () =
  let t =
    {
      cfg;
      self;
      sink;
      retained_above;
      primary;
      replicas;
      retries = Hashtbl.create 64;
      members = [||];
      floors = [||];
      scratch = [||];
      q = 1;
      durable = 0;
      acked = 0;
      failover = Normal;
      failovers_done = 0;
    }
  in
  set_members t ~primary ~replicas;
  t

let primary t = t.primary
let replicas t = t.replicas
let durable t = t.durable
let acked t = t.acked
let failovers t = t.failovers_done

(* --- hot ack-floor bookkeeping ---------------------------------------- *)

(* Raise member [m]'s contiguous floor; linear scan over the (small,
   fixed) member array keeps this allocation-free. *)
let[@lint.hot] note_floor t ~member ~floor =
  let i = member_index t.members member 0 in
  if i >= 0 && floor > Array.unsafe_get t.floors i then
    Array.unsafe_set t.floors i floor

let[@lint.hot] rec insert_desc (scratch : int array) i (v : int) =
  if i >= 0 && Array.unsafe_get scratch i < v then begin
    Array.unsafe_set scratch (i + 1) (Array.unsafe_get scratch i);
    insert_desc scratch (i - 1) v
  end
  else Array.unsafe_set scratch (i + 1) v

(* Copy the member floors into [scratch] sorted descending (in-place
   insertion sort over a handful of members, allocation-free).  After
   this, [scratch.(q-1)] is the quorum-durable floor and
   [scratch.(n-1)] the slowest member's floor. *)
let[@lint.hot] sort_floors t =
  let floors = t.floors and scratch = t.scratch in
  let n = Array.length floors in
  Array.blit floors 0 scratch 0 n;
  for i = 1 to n - 1 do
    insert_desc scratch (i - 1) (Array.unsafe_get scratch i)
  done

(* --- shared floor/retry plumbing -------------------------------------- *)

(* Advance the durability/ack high-water marks; true if anything moved. *)
let advance t ~now ~durable ~acked =
  let moved = Seqno.(durable > t.durable) || Seqno.(acked > t.acked) in
  if Seqno.(durable > t.durable) then t.durable <- durable;
  if Seqno.(acked > t.acked) then t.acked <- acked;
  if moved && Trace.is_on t.sink then
    trace t ~now (Trace.Ack_floor { durable = t.durable; acked = t.acked });
  moved

let stop_retries_upto t floor =
  let stop =
    Hashtbl.fold
      (fun seq _ acc -> if Seqno.(seq <= floor) then seq :: acc else acc)
      t.retries []
  in
  List.iter (Hashtbl.remove t.retries) stop;
  List.map (fun seq -> Cancel_timer (K_deposit seq)) stop

let clear_all_retries t =
  let stale = Hashtbl.fold (fun seq _ acc -> seq :: acc) t.retries [] in
  List.iter (Hashtbl.remove t.retries) stale;
  List.map (fun seq -> Cancel_timer (K_deposit seq)) stale

let release_events t moved = if moved then [ E_release t.durable ] else []

(* --- deposit routing --------------------------------------------------- *)

let resend t ~now ~seq ~epoch ~payload ~attempt =
  if Trace.is_on t.sink then trace t ~now (Trace.Deposit_sent { seq; attempt });
  let pv = Payload.of_string payload in
  let arm = Set_timer (K_deposit seq, Config.deposit_delay t.cfg ~attempt) in
  match t.cfg.replication with
  | Config.R_primary ->
      [ Io.send_to t.primary (Message.Log_deposit { seq; epoch; payload = pv }); arm ]
  | Config.R_ring ->
      [ Io.send_to t.primary (Message.Ring_forward { seq; epoch; payload = pv }); arm ]
  | Config.R_quorum ->
      (* only the members whose floor is still below [seq] *)
      let sends = ref [ arm ] in
      for i = Array.length t.members - 1 downto 0 do
        if Seqno.(t.floors.(i) < seq) then
          sends :=
            Io.send_to t.members.(i)
              (Message.Log_deposit { seq; epoch; payload = pv })
            :: !sends
      done;
      !sends

(* A first deposit (or a re-deposit after promotion) starts a fresh
   retry count.  Every member floor the source knows is below [seq]
   then, so [resend]'s quorum filter reaches every member. *)
let deposit t ~now ~seq ~epoch ~payload =
  Hashtbl.replace t.retries seq 0;
  resend t ~now ~seq ~epoch ~payload ~attempt:0

(* --- fail-over outcomes ------------------------------------------------ *)

let kept t ~now =
  if Trace.is_on t.sink then
    trace t ~now (Trace.Failover_step (Trace.F_kept t.primary));
  E_kept t.primary

(* [primary] now leads; the owner re-deposits what it retains above
   [floor]. *)
let promoted t ~now ~primary ~floor =
  if Trace.is_on t.sink then
    trace t ~now
      (Trace.Failover_step
         (Trace.F_promoted { primary; redeposits = t.retained_above floor }));
  E_promoted { primary; floor }

(* --- fail-over: primary and ring (query round) ------------------------- *)

let begin_failover t ~now =
  match t.failover with
  | Querying _ -> ([], [])
  | Normal ->
      if Trace.is_on t.sink then trace t ~now (Trace.Failover_step Trace.F_suspected);
      let targets =
        match t.cfg.replication with
        | Config.R_ring ->
            (* any member's death breaks the chain: poll the whole ring *)
            t.primary :: t.replicas
        | Config.R_primary | Config.R_quorum -> t.replicas
      in
      if targets = [] then ([], [ E_suspected ])
      else begin
        t.failovers_done <- t.failovers_done + 1;
        t.failover <- Querying { statuses = []; round = t.failovers_done };
        if Trace.is_on t.sink then
          trace t ~now
            (Trace.Failover_step
               (Trace.F_query
                  { round = t.failovers_done; replicas = List.length targets }));
        ( Set_timer (K_failover t.failovers_done, 2. *. t.cfg.deposit_timeout)
          :: List.map (fun r -> Io.send_to r Message.Replica_query) targets,
          [ E_suspected ] )
      end

(* Most-up-to-date first; ties broken by address so fail-over outcomes
   never depend on response arrival order. *)
let sort_statuses statuses =
  List.sort
    (fun (a, sa) (b, sb) ->
      let c = Seqno.compare sb sa in
      if c <> 0 then c else Int.compare a b)
    statuses

let finish_primary t ~now statuses =
  match sort_statuses statuses with
  | [] -> ([], [ kept t ~now ]) (* no replica answered: keep the old one *)
  | (best, best_seq) :: _ ->
      let others = List.filter (fun r -> r <> best) t.replicas in
      (* [Promote] is wire-bounded to [Codec.promote_max] replicas;
         never build an unencodable one.  Replicas beyond the bound are
         dropped from the set — they keep their logs but the new
         primary will not feed them. *)
      let others =
        List.filteri (fun i _ -> i < Lbrm_wire.Codec.promote_max) others
      in
      (* Every pending deposit retry was aimed at the dead primary; left
         armed, the first to fire would start a second, spurious
         fail-over round.  The owner re-deposits with fresh clocks. *)
      let cancels = clear_all_retries t in
      t.primary <- best;
      t.replicas <- others;
      let ev = promoted t ~now ~primary:best ~floor:best_seq in
      (Io.send_to best (Message.Promote { replicas = others }) :: cancels, [ ev ])

let finish_ring t ~now statuses =
  match sort_statuses statuses with
  | [] -> ([], [ kept t ~now ])
  | ((head, _) :: _ as order) ->
      let order = List.filteri (fun i _ -> i < Lbrm_wire.Codec.promote_max) order in
      let cancels = clear_all_retries t in
      (* Re-deposit from the slowest survivor's floor: the head re-walks
         the chain, so every member regains what it missed. *)
      let min_floor =
        match order with
        | (_, s0) :: rest ->
            List.fold_left
              (fun acc (_, s) -> if Seqno.(s < acc) then s else acc)
              s0 rest
        | [] -> 0
      in
      let rec ring_sets = function
        | [] -> []
        | [ (m, _) ] -> [ Io.send_to m (Message.Ring_set { succ = None; head }) ]
        | (m, _) :: ((next, _) :: _ as rest) ->
            Io.send_to m (Message.Ring_set { succ = Some next; head })
            :: ring_sets rest
      in
      t.primary <- head;
      t.replicas <- List.map fst (List.tl order);
      let ev = promoted t ~now ~primary:head ~floor:min_floor in
      (ring_sets order @ cancels, [ ev ])

let finish_failover t ~now =
  match t.failover with
  | Normal -> ([], [])
  | Querying { statuses; _ } -> (
      t.failover <- Normal;
      match t.cfg.replication with
      | Config.R_ring -> finish_ring t ~now statuses
      | Config.R_primary | Config.R_quorum -> finish_primary t ~now statuses)

(* --- fail-over: quorum (immediate, ack-floor based) -------------------- *)

(* Deposit retries against [seq] exhausted with the serving primary's
   floor still below it: the primary is suspected dead.  No query round
   — the ack floors already say who is most up to date. *)
let quorum_suspect t ~now =
  if Trace.is_on t.sink then trace t ~now (Trace.Failover_step Trace.F_suspected);
  let n = Array.length t.members in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if
      t.floors.(i) > t.floors.(!best)
      || (t.floors.(i) = t.floors.(!best) && t.members.(i) < t.members.(!best))
    then best := i
  done;
  let best_member = t.members.(!best) and best_floor = t.floors.(!best) in
  if best_member = t.primary then begin
    (* the laggards are a minority; the primary stands *)
    ([], [ E_suspected; kept t ~now ])
  end
  else begin
    t.failovers_done <- t.failovers_done + 1;
    let cancels = clear_all_retries t in
    let others =
      Array.fold_right
        (fun m acc -> if m = best_member then acc else m :: acc)
        t.members []
    in
    let others =
      List.filteri (fun i _ -> i < Lbrm_wire.Codec.promote_max) others
    in
    set_members t ~primary:best_member ~replicas:others;
    let ev = promoted t ~now ~primary:best_member ~floor:best_floor in
    ( Io.send_to best_member (Message.Promote { replicas = others }) :: cancels,
      [ E_suspected; ev ] )
  end

(* --- acks -------------------------------------------------------------- *)

let on_log_ack t ~now ~primary_seq ~replica_seq =
  if Trace.is_on t.sink then
    trace t ~now (Trace.Deposit_acked { primary_seq; replica_seq });
  (* Deposits at or below the primary's contiguous mark stop retrying;
     buffers at or below the best replica's mark are durable (§2.2.3). *)
  let cancels = stop_retries_upto t primary_seq in
  let moved = advance t ~now ~durable:replica_seq ~acked:primary_seq in
  (cancels, release_events t moved)

let on_ring_ack t ~now ~floor =
  (* The tail's cumulative floor: everything at or below it is logged by
     every ring member. *)
  let cancels = stop_retries_upto t floor in
  let moved = advance t ~now ~durable:floor ~acked:floor in
  (cancels, release_events t moved)

let on_quorum_ack t ~now ~member ~floor =
  note_floor t ~member ~floor;
  sort_floors t;
  let n = Array.length t.scratch in
  let durable = Array.unsafe_get t.scratch (t.q - 1) in
  let slowest = Array.unsafe_get t.scratch (n - 1) in
  let acked = Array.unsafe_get t.scratch 0 in
  (* A retry clock only stops once *every* member holds the seq: a
     durable-but-unfinished deposit must keep probing, or a dead
     primary would go unnoticed until the next send. *)
  let cancels = stop_retries_upto t slowest in
  let moved = advance t ~now ~durable ~acked in
  (cancels, release_events t moved)

(* --- dispatch ---------------------------------------------------------- *)

let on_message t ~now ~src msg =
  match (msg : Message.t) with
  | Message.Log_ack { primary_seq; replica_seq } ->
      Some (on_log_ack t ~now ~primary_seq ~replica_seq)
  | Message.Ring_ack { seq } -> Some (on_ring_ack t ~now ~floor:seq)
  | Message.Quorum_ack { seq } ->
      Some (on_quorum_ack t ~now ~member:src ~floor:seq)
  | Message.Replica_status { seq } ->
      (match t.failover with
      | Querying q -> q.statuses <- (src, seq) :: q.statuses
      | Normal -> ());
      Some ([], [])
  | _ -> None

let on_deposit_timeout t ~now ~seq ~lookup =
  match Hashtbl.find_opt t.retries seq with
  | None -> ([], [])
  | Some attempts ->
      if attempts >= t.cfg.deposit_retry_limit then
        match t.cfg.replication with
        | Config.R_primary | Config.R_ring -> begin_failover t ~now
        | Config.R_quorum ->
            Hashtbl.remove t.retries seq;
            let pi = member_index t.members t.primary 0 in
            if pi >= 0 && Seqno.(t.floors.(pi) >= seq) then
              (* the primary holds it: only minority laggards are
                 behind, and they catch up by gap-chasing *)
              ([], [])
            else quorum_suspect t ~now
      else begin
        Hashtbl.replace t.retries seq (attempts + 1);
        match lookup seq with
        | None -> (
            match t.cfg.replication with
            | Config.R_quorum
              when let pi = member_index t.members t.primary 0 in
                   pi >= 0 && Seqno.(t.floors.(pi) < seq) ->
                (* A quorum made the seq durable and the payload was
                   released, but the serving member still has not acked
                   it.  Nothing to resend, yet the clock must keep
                   running: this timer chain is the only dead-primary
                   detector the strategy has. *)
                ( [
                    Set_timer
                      ( K_deposit seq,
                        Config.deposit_delay t.cfg ~attempt:(attempts + 1) );
                  ],
                  [] )
            | _ ->
                Hashtbl.remove t.retries seq;
                ([], []))
        | Some (payload, epoch) ->
            (resend t ~now ~seq ~epoch ~payload ~attempt:(attempts + 1), [])
      end

let on_timer t ~now key ~lookup =
  match (key : Io.timer_key) with
  | K_deposit seq -> Some (on_deposit_timeout t ~now ~seq ~lookup)
  | K_failover round -> (
      match t.failover with
      | Querying { round = r; _ } when r = round -> Some (finish_failover t ~now)
      | Querying _ | Normal -> Some ([], []))
  | _ -> None

module Hot = struct
  let member_index = member_index
  let note_floor = note_floor
  let insert_desc = insert_desc
  let sort_floors = sort_floors
end
