module Rng = Lbrm_util.Rng
module Gap_tracker = Lbrm_util.Gap_tracker

(* One record per distinct missing sequence number.  [remaining] is the
   multiplicity (how many of the population still miss it);
   [tracer_missing] marks which tracers are among them, so repair
   rounds can keep the joint tracer/aggregate sample consistent. *)
type gap = {
  mutable remaining : int;
  tracer_missing : bool array;
  mutable tracers_missing : int;
}

type t = {
  size : int;
  n_tracers : int;
  lan_loss : float;
  rng : Rng.t;
  (* Site-level receive window: which seqs the *site* has seen.  A seq
     can be absent from the tracker's missing set while receivers still
     miss it (LAN-level gap) — [gaps] is the receiver-level truth. *)
  tracker : Gap_tracker.t;
  gaps : (int, gap) Hashtbl.t;
  mutable known : int;
  mutable delivered : int;
  mutable recovered : int;
  mutable gave_up : int;
  tracer_fed : int array;
  (* tracer-vs-aggregate agreement accumulators: per sampling event the
     tracers' miss count is hypergeometric given the aggregate draw;
     mean and variance accumulate across events. *)
  mutable agree_actual : int;
  mutable agree_expected : float;
  mutable agree_var : float;
}

let create ?(tracers = 2) ~size ~lan_loss ~rng () =
  assert (size >= 1);
  assert (tracers >= 0 && tracers <= size);
  assert (lan_loss >= 0. && lan_loss < 1.);
  let tracker = Gap_tracker.create () in
  (* Streams start at seq 1: prime a floor so the first arrival opens a
     gap for any earlier packets (matches Receiver's recover_from_start
     default). *)
  ignore (Gap_tracker.note tracker 0);
  {
    size;
    n_tracers = tracers;
    lan_loss;
    rng;
    tracker;
    gaps = Hashtbl.create 32;
    known = 0;
    delivered = 0;
    recovered = 0;
    gave_up = 0;
    tracer_fed = Array.make tracers 0;
    agree_actual = 0;
    agree_expected = 0.;
    agree_var = 0.;
  }

let size t = t.size
let tracers t = t.n_tracers
let known t = t.known
let delivered t = t.delivered
let recovered t = t.recovered
let gave_up t = t.gave_up
let highest t = Stdlib.max 0 (Option.value ~default:0 (Gap_tracker.highest t.tracker))
let distinct_gaps t = Hashtbl.length t.gaps

let missing t =
  Hashtbl.fold (fun _ g acc -> acc + g.remaining) t.gaps 0

let remaining t ~seq =
  match Hashtbl.find_opt t.gaps seq with Some g -> g.remaining | None -> 0

let is_fully_delivered t ~seq =
  (not (Hashtbl.mem t.gaps seq))
  && (not (Gap_tracker.is_missing t.tracker seq))
  && seq <= highest t && seq >= 1

let tracer_fed t = Array.copy t.tracer_fed

let agreement_z t =
  if t.agree_var <= 0. then 0.
  else (float_of_int t.agree_actual -. t.agree_expected) /. sqrt t.agree_var

(* Record one sampling event for the agreement statistic: [draws]
   tracers among a population of [population] receivers of which
   [successes] were sampled as misses; [actual] tracers landed among
   them. *)
let note_agreement t ~population ~draws ~successes ~actual =
  if draws > 0 && population > 0 && successes > 0 then begin
    let n = float_of_int population in
    let k = float_of_int draws in
    let s = float_of_int successes in
    t.agree_actual <- t.agree_actual + actual;
    t.agree_expected <- t.agree_expected +. (s *. k /. n);
    if population > 1 then
      t.agree_var <-
        t.agree_var
        +. k *. (s /. n) *. (1. -. (s /. n)) *. ((n -. k) /. (n -. 1.))
  end

type outcome = {
  seq : int;
  first : bool;
  newly_delivered : int;
  still_missing : int;
  tracer_got : bool array;
  opened : (int * int) list;
}

(* A sequence number newly known missing at site level: everyone,
   tracers included, misses it. *)
let open_site_gap t seq =
  t.known <- t.known + 1;
  let tracer_missing = Array.make t.n_tracers true in
  Hashtbl.replace t.gaps seq
    { remaining = t.size; tracer_missing; tracers_missing = t.n_tracers };
  (seq, t.size)

let open_site_gaps t seqs = List.map (open_site_gap t) seqs

(* First time this payload reaches the site: the whole population is
   offered it, Binomial(size, lan_loss) receivers miss it, and the
   tracers' outcomes are drawn from the same sample by a
   without-replacement chain (exact hypergeometric marginals). *)
let first_arrival t ~seq ~was_site_gap ~opened =
  if not was_site_gap then t.known <- t.known + 1;
  let k = Rng.binomial t.rng ~n:t.size ~p:t.lan_loss in
  let tracer_got = Array.make t.n_tracers true in
  let tracers_missing = ref 0 in
  let k_rem = ref k in
  let n_rem = ref t.size in
  for i = 0 to t.n_tracers - 1 do
    let p = float_of_int !k_rem /. float_of_int !n_rem in
    if !k_rem > 0 && Rng.bernoulli t.rng ~p then begin
      tracer_got.(i) <- false;
      incr tracers_missing;
      decr k_rem
    end
    else t.tracer_fed.(i) <- t.tracer_fed.(i) + 1;
    decr n_rem
  done;
  note_agreement t ~population:t.size ~draws:t.n_tracers ~successes:k
    ~actual:!tracers_missing;
  let newly = t.size - k in
  t.delivered <- t.delivered + newly;
  if was_site_gap then t.recovered <- t.recovered + newly;
  if k > 0 then
    Hashtbl.replace t.gaps seq
      {
        remaining = k;
        tracer_missing = Array.map not tracer_got;
        tracers_missing = !tracers_missing;
      }
  else Hashtbl.remove t.gaps seq;
  {
    seq;
    first = true;
    newly_delivered = newly;
    still_missing = k;
    tracer_got;
    opened;
  }

(* A repair round: every receiver still missing [seq] independently
   receives the repair with probability 1 - lan_loss.  Still-missing
   tracers are re-drawn from the same chain over the gap's remaining
   population. *)
let repair t ~seq =
  let tracer_got = Array.make t.n_tracers false in
  match Hashtbl.find_opt t.gaps seq with
  | None ->
      {
        seq;
        first = false;
        newly_delivered = 0;
        still_missing = 0;
        tracer_got;
        opened = [];
      }
  | Some g ->
      let m = g.remaining in
      let k' = Rng.binomial t.rng ~n:m ~p:t.lan_loss in
      let draws = g.tracers_missing in
      let k_rem = ref k' in
      let m_rem = ref m in
      let still = ref 0 in
      for i = 0 to t.n_tracers - 1 do
        if g.tracer_missing.(i) then begin
          let p = float_of_int !k_rem /. float_of_int !m_rem in
          if !k_rem > 0 && Rng.bernoulli t.rng ~p then begin
            incr still;
            decr k_rem
          end
          else begin
            g.tracer_missing.(i) <- false;
            g.tracers_missing <- g.tracers_missing - 1;
            tracer_got.(i) <- true;
            t.tracer_fed.(i) <- t.tracer_fed.(i) + 1
          end;
          decr m_rem
        end
      done;
      note_agreement t ~population:m ~draws ~successes:k' ~actual:!still;
      let repaired = m - k' in
      t.delivered <- t.delivered + repaired;
      t.recovered <- t.recovered + repaired;
      if k' > 0 then g.remaining <- k' else Hashtbl.remove t.gaps seq;
      {
        seq;
        first = false;
        newly_delivered = repaired;
        still_missing = k';
        tracer_got;
        opened = [];
      }

let on_packet t ~seq =
  match Gap_tracker.note t.tracker seq with
  | Gap_tracker.First | Gap_tracker.In_order ->
      first_arrival t ~seq ~was_site_gap:false ~opened:[]
  | Gap_tracker.Fills_gap ->
      (* The payload never reached the site before (tail loss or
         heartbeat-declared): this is still its first arrival, filling
         a full-multiplicity gap. *)
      first_arrival t ~seq ~was_site_gap:true ~opened:[]
  | Gap_tracker.Gap_opened older ->
      (* The packet arrived ahead; the skipped numbers are missing for
         the whole site.  (Gap_tracker reports only *older* numbers —
         [seq] itself arrived.) *)
      let opened = open_site_gaps t older in
      first_arrival t ~seq ~was_site_gap:false ~opened
  | Gap_tracker.Duplicate -> repair t ~seq

let on_heartbeat t ~seq =
  open_site_gaps t (Gap_tracker.note_exists t.tracker seq)

let abandon t ~seq =
  match Hashtbl.find_opt t.gaps seq with
  | None -> 0
  | Some g ->
      Hashtbl.remove t.gaps seq;
      Gap_tracker.abandon t.tracker seq;
      t.gave_up <- t.gave_up + g.remaining;
      g.remaining
