module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
open Io

type address = Message.address
type seq = Seqno.t

type failover =
  | Normal
  | Querying of { mutable statuses : (address * seq) list; round : int }

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  retained : (seq, string * int) Hashtbl.t; (* owner's replay table *)
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

let create cfg ~self ~primary ?(replicas = []) ~retained
    ?(sink = Trace.null ()) () =
  let t =
    {
      cfg;
      self;
      sink;
      retained;
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

let stop_retries t out seqs =
  List.iter
    (fun seq ->
      Hashtbl.remove t.retries seq;
      Io.push out (Cancel_timer (K_deposit seq)))
    seqs

(* Cancels leave in seq order, not the table's bucket order.  In the
   simulator most acks settle at most one seq, which needs no sort
   (List.sort allocates its closures even for an empty list).  Over UDP
   the transmit stage merges a drain's acks into one, which settles
   every deposit of that drain and takes the sort. *)
let stop_retries_upto t out floor =
  match
    Hashtbl.fold
      (fun seq _ acc -> if Seqno.(seq <= floor) then seq :: acc else acc)
      t.retries []
  with
  | ([] | [ _ ]) as seqs -> stop_retries t out seqs
  | seqs -> stop_retries t out (List.sort Seqno.compare seqs)

let clear_all_retries t out =
  match Hashtbl.fold (fun seq _ acc -> seq :: acc) t.retries [] with
  | ([] | [ _ ]) as seqs -> stop_retries t out seqs
  | seqs -> stop_retries t out (List.sort Seqno.compare seqs)

(* --- deposit routing --------------------------------------------------- *)

let resend t out ~now ~seq ~epoch ~payload ~attempt =
  if Trace.is_on t.sink then trace t ~now (Trace.Deposit_sent { seq; attempt });
  let pv = Payload.of_string payload in
  (match t.cfg.replication with
  | Config.R_primary ->
      Io.push out
        (Io.send_to t.primary
           (Message.Log_deposit { seq; epoch; payload = pv }))
  | Config.R_ring ->
      Io.push out
        (Io.send_to t.primary
           (Message.Ring_forward { seq; epoch; payload = pv }))
  | Config.R_quorum ->
      (* only the members whose floor is still below [seq] *)
      for i = 0 to Array.length t.members - 1 do
        if Seqno.(t.floors.(i) < seq) then
          Io.push out
            (Io.send_to t.members.(i)
               (Message.Log_deposit { seq; epoch; payload = pv }))
      done);
  Io.push out (Set_timer (K_deposit seq, Config.deposit_delay t.cfg ~attempt))

(* A first deposit (or a re-deposit after promotion) starts a fresh
   retry count.  Under quorum at least one member floor the source
   knows is below [seq] then ([promoted] leaves out what every member
   holds), so [resend]'s filter always sends a deposit. *)
let deposit t out ~now ~seq ~epoch ~payload =
  Hashtbl.replace t.retries seq 0;
  resend t out ~now ~seq ~epoch ~payload ~attempt:0

(* --- fail-over outcomes ------------------------------------------------ *)

let suspected out = Io.push out (Notify N_primary_suspected)

let kept t out ~now =
  if Trace.is_on t.sink then
    trace t ~now (Trace.Failover_step (Trace.F_kept t.primary));
  Io.push out (Notify (N_new_primary t.primary))

(* [primary] now leads: hand it every retained packet, in ascending seq
   order with fresh retry clocks.  Survivors that already hold a packet
   still ack the re-deposit: after a promotion that lands past the last
   send, those acks are the only ones left to raise the durable floor.
   Under quorum the source knows every member's floor, so packets at or
   below the slowest one are held by all and are left out. *)
let promoted t out ~now ~primary =
  let held =
    match t.cfg.replication with
    | Config.R_primary | Config.R_ring -> 0
    | Config.R_quorum ->
        Array.fold_left
          (fun lo f -> if Seqno.(f < lo) then f else lo)
          t.floors.(0) t.floors
  in
  let seqs =
    Hashtbl.fold
      (fun seq _ acc -> if Seqno.(seq > held) then seq :: acc else acc)
      t.retained []
    |> List.sort Seqno.compare
  in
  if Trace.is_on t.sink then
    trace t ~now
      (Trace.Failover_step
         (Trace.F_promoted { primary; redeposits = List.length seqs }));
  Io.push out (Notify (N_new_primary primary));
  List.iter
    (fun seq ->
      let payload, epoch = Hashtbl.find t.retained seq in
      deposit t out ~now ~seq ~epoch ~payload)
    seqs

(* --- fail-over: primary and ring (query round) ------------------------- *)

let begin_failover t out ~now =
  match t.failover with
  | Querying _ -> ()
  | Normal ->
      if Trace.is_on t.sink then trace t ~now (Trace.Failover_step Trace.F_suspected);
      let targets =
        match t.cfg.replication with
        | Config.R_ring ->
            (* any member's death breaks the chain: poll the whole ring *)
            t.primary :: t.replicas
        | Config.R_primary | Config.R_quorum -> t.replicas
      in
      if targets <> [] then begin
        t.failovers_done <- t.failovers_done + 1;
        t.failover <- Querying { statuses = []; round = t.failovers_done };
        if Trace.is_on t.sink then
          trace t ~now
            (Trace.Failover_step
               (Trace.F_query
                  { round = t.failovers_done; replicas = List.length targets }));
        Io.push out
          (Set_timer
             (K_failover t.failovers_done, 2. *. t.cfg.deposit_timeout));
        List.iter
          (fun r -> Io.push out (Io.send_to r Message.Replica_query))
          targets
      end;
      suspected out

(* Most-up-to-date first; ties broken by address so fail-over outcomes
   never depend on response arrival order. *)
let sort_statuses statuses =
  List.sort
    (fun (a, sa) (b, sb) ->
      let c = Seqno.compare sb sa in
      if c <> 0 then c else Int.compare a b)
    statuses

let finish_primary t out ~now statuses =
  match sort_statuses statuses with
  | [] -> kept t out ~now (* no replica answered: keep the old one *)
  | (best, _) :: _ ->
      let others = List.filter (fun r -> r <> best) t.replicas in
      (* [Promote] is wire-bounded to [Codec.promote_max] replicas;
         never build an unencodable one.  Replicas beyond the bound are
         dropped from the set — they keep their logs but the new
         primary will not feed them. *)
      let others =
        List.filteri (fun i _ -> i < Lbrm_wire.Codec.promote_max) others
      in
      Io.push out (Io.send_to best (Message.Promote { replicas = others }));
      (* Every pending deposit retry was aimed at the dead primary; left
         armed, the first to fire would start a second, spurious
         fail-over round.  The re-deposits start fresh clocks. *)
      clear_all_retries t out;
      t.primary <- best;
      t.replicas <- others;
      promoted t out ~now ~primary:best

let rec ring_sets out ~head = function
  | [] -> ()
  | [ (m, _) ] ->
      Io.push out (Io.send_to m (Message.Ring_set { succ = None; head }))
  | (m, _) :: ((next, _) :: _ as rest) ->
      Io.push out (Io.send_to m (Message.Ring_set { succ = Some next; head }));
      ring_sets out ~head rest

let finish_ring t out ~now statuses =
  match sort_statuses statuses with
  | [] -> kept t out ~now
  | (head, _) :: _ as order ->
      let order = List.filteri (fun i _ -> i < Lbrm_wire.Codec.promote_max) order in
      ring_sets out ~head order;
      clear_all_retries t out;
      t.primary <- head;
      t.replicas <- List.map fst (List.tl order);
      promoted t out ~now ~primary:head

(* --- fail-over: quorum (immediate, ack-floor based) -------------------- *)

(* Deposit retries against [seq] exhausted with the serving primary's
   floor still below it: the primary is suspected dead.  No query round
   — the ack floors already say who is most up to date. *)
let quorum_suspect t out ~now =
  if Trace.is_on t.sink then trace t ~now (Trace.Failover_step Trace.F_suspected);
  let n = Array.length t.members in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if
      t.floors.(i) > t.floors.(!best)
      || (t.floors.(i) = t.floors.(!best) && t.members.(i) < t.members.(!best))
    then best := i
  done;
  let best_member = t.members.(!best) in
  if best_member = t.primary then begin
    (* the laggards are a minority; the primary stands *)
    suspected out;
    kept t out ~now
  end
  else begin
    t.failovers_done <- t.failovers_done + 1;
    let others =
      Array.fold_right
        (fun m acc -> if m = best_member then acc else m :: acc)
        t.members []
    in
    let others =
      List.filteri (fun i _ -> i < Lbrm_wire.Codec.promote_max) others
    in
    Io.push out
      (Io.send_to best_member (Message.Promote { replicas = others }));
    clear_all_retries t out;
    set_members t ~primary:best_member ~replicas:others;
    suspected out;
    promoted t out ~now ~primary:best_member
  end

(* --- acks -------------------------------------------------------------- *)

let on_log_ack t out ~now ~primary_seq ~replica_seq =
  if Trace.is_on t.sink then
    trace t ~now (Trace.Deposit_acked { primary_seq; replica_seq });
  (* Deposits at or below the primary's contiguous mark stop retrying;
     buffers at or below the best replica's mark are durable (§2.2.3). *)
  stop_retries_upto t out primary_seq;
  advance t ~now ~durable:replica_seq ~acked:primary_seq

let on_ring_ack t out ~now ~floor =
  (* The tail's cumulative floor: everything at or below it is logged by
     every ring member. *)
  stop_retries_upto t out floor;
  advance t ~now ~durable:floor ~acked:floor

let on_quorum_ack t out ~now ~member ~floor =
  note_floor t ~member ~floor;
  sort_floors t;
  let n = Array.length t.scratch in
  let durable = Array.unsafe_get t.scratch (t.q - 1) in
  let slowest = Array.unsafe_get t.scratch (n - 1) in
  let acked = Array.unsafe_get t.scratch 0 in
  (* A retry clock only stops once *every* member holds the seq: a
     durable-but-unfinished deposit must keep probing, or a dead
     primary would go unnoticed until the next send. *)
  stop_retries_upto t out slowest;
  advance t ~now ~durable ~acked

(* --- dispatch ---------------------------------------------------------- *)

let on_message t out ~now ~src msg =
  match (msg : Message.t) with
  | Message.Log_ack { primary_seq; replica_seq } ->
      on_log_ack t out ~now ~primary_seq ~replica_seq
  | Message.Ring_ack { seq } -> on_ring_ack t out ~now ~floor:seq
  | Message.Quorum_ack { seq } ->
      on_quorum_ack t out ~now ~member:src ~floor:seq
  | Message.Replica_status { seq } ->
      (match t.failover with
      | Querying q -> q.statuses <- (src, seq) :: q.statuses
      | Normal -> ());
      false
  | _ -> false

let on_deposit_timeout t out ~now ~seq =
  match Hashtbl.find_opt t.retries seq with
  | None -> ()
  | Some attempts ->
      if attempts >= t.cfg.deposit_retry_limit then (
        match t.cfg.replication with
        | Config.R_primary | Config.R_ring -> begin_failover t out ~now
        | Config.R_quorum ->
            Hashtbl.remove t.retries seq;
            let pi = member_index t.members t.primary 0 in
            (* If the primary holds it, only minority laggards are
               behind, and they catch up by gap-chasing. *)
            if not (pi >= 0 && Seqno.(t.floors.(pi) >= seq)) then
              quorum_suspect t out ~now)
      else begin
        Hashtbl.replace t.retries seq (attempts + 1);
        match Hashtbl.find_opt t.retained seq with
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
                Io.push out
                  (Set_timer
                     ( K_deposit seq,
                       Config.deposit_delay t.cfg ~attempt:(attempts + 1) ))
            | _ -> Hashtbl.remove t.retries seq)
        | Some (payload, epoch) ->
            resend t out ~now ~seq ~epoch ~payload ~attempt:(attempts + 1)
      end

let on_timer t out ~now key =
  match (key : Io.timer_key) with
  | K_deposit seq -> on_deposit_timeout t out ~now ~seq
  | K_failover round -> (
      match t.failover with
      | Querying { statuses; round = r } when r = round -> (
          t.failover <- Normal;
          match t.cfg.replication with
          | Config.R_ring -> finish_ring t out ~now statuses
          | Config.R_primary | Config.R_quorum ->
              finish_primary t out ~now statuses)
      | Querying _ | Normal -> ())
  | _ -> ()

module Hot = struct
  let member_index = member_index
  let note_floor = note_floor
  let insert_desc = insert_desc
  let sort_floors = sort_floors
end
