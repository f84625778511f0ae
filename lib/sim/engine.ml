module Rng = Lbrm_util.Rng

(* The event queue is a calendar queue (Brown, CACM 1988): an array of
   time buckets, each a sorted circular doubly-linked list, with bucket
   width tuned to the observed inter-event gap so that enqueue and
   dequeue are O(1) in steady state.  A binary heap pays ~log2(n)
   branch-mispredicted comparisons per event, which dominates the hot
   path once thousands of packet events are in flight; the calendar
   queue replaces that with a single hash on the event time plus a
   walk of a ~1-entry bucket list.

   Ordering is exact, not approximate: events are totally ordered by
   (time, seq) where [seq] is a per-engine insertion counter, so
   same-instant callbacks fire FIFO and runs are bit-reproducible.

   Cancellation is O(1): timers unlink themselves from their bucket
   list.  Re-keying a live timer ([reschedule]) unlinks the node and
   re-inserts it under a fresh key, so a handle-bearing timer can be
   moved any number of times without allocating.

   Fire-and-forget entries ([post]/[post_at]) recycle their nodes
   through a free list, so the steady schedule-fire pattern allocates
   nothing beyond the caller's closure; handle-bearing
   entries ([schedule]/[at]) are never recycled because the handle
   aliases the node.  Retired nodes are blanked so the queue never
   retains fired callbacks. *)

(* All floats are unboxed here; a float field of [node] itself would be
   a pointer to a fresh box on every write. *)
type stamps = {
  mutable time : float; (* queue key *)
  mutable born : float; (* virtual enqueue time, for sojourn accounting *)
}

type node = {
  tm : stamps;
  mutable seq : int; (* tie-break: FIFO among equal times *)
  mutable bucket : int; (* absolute bucket number, floor(time / width) *)
  mutable fn : unit -> unit;
  mutable prev : node;
  mutable next : node;
  mutable live : bool; (* queued; false once fired or cancelled *)
  recyclable : bool; (* no handle escaped; safe to pool *)
  mutable kind : int; (* accounting category, [0, max_kinds) *)
}

type timer = node

let noop () = ()

(* Sentinels never move, so they can share one never-written stamp. *)
let sentinel_stamps = { time = infinity; born = 0. }

let new_sentinel () =
  let rec s =
    {
      tm = sentinel_stamps;
      seq = max_int;
      bucket = max_int;
      fn = noop;
      prev = s;
      next = s;
      live = false;
      recyclable = false;
      kind = 0;
    }
  in
  s

let min_buckets = 16
let pool_max = 32768

(* Per-event-kind accounting categories.  The engine itself is
   agnostic; these constants are the conventions the LBRM runtimes
   use. *)
let max_kinds = 8
let kind_default = 0
let kind_packet = 1
let kind_timer = 2
let kind_app = 3

type t = {
  clock : float array; (* 1-element flat array: unboxed, barrier-free writes *)
  mutable buckets : node array; (* bucket sentinels; length is a power of 2 *)
  mutable mask : int; (* Array.length buckets - 1 *)
  mutable width : float; (* seconds of virtual time per bucket *)
  mutable inv_width : float;
  mutable epoch : int; (* absolute bucket number currently being drained *)
  mutable size : int; (* queued events *)
  mutable next_seq : int;
  mutable pool : node; (* free-list of recyclable nodes, linked by [next] *)
  mutable pool_len : int;
  nil : node; (* terminator for the free list *)
  mutable spares : node array list; (* retired bucket arrays, kept for reuse *)
  rng : Rng.t;
  mutable processed : int;
  kind_fired : int array; (* events fired, by kind *)
  kind_wait : float array; (* total virtual seconds queued, by kind *)
}

let create ?(seed = 42) () =
  let nil = new_sentinel () in
  {
    clock = Array.make 1 0.;
    buckets = Array.init min_buckets (fun _ -> new_sentinel ());
    mask = min_buckets - 1;
    width = 1e-3;
    inv_width = 1e3;
    epoch = 0;
    size = 0;
    next_seq = 0;
    pool = nil;
    pool_len = 0;
    nil;
    spares = [];
    rng = Rng.create ~seed;
    processed = 0;
    kind_fired = Array.make max_kinds 0;
    kind_wait = Array.make max_kinds 0.;
  }

let now t = Array.unsafe_get t.clock 0
let set_clock t v = Array.unsafe_set t.clock 0 v
let rng t = t.rng

(* Absolute bucket number for a time under the current width.  Clamped
   so pathological far-future times cannot overflow the conversion. *)
let bucket_of t time =
  let f = time *. t.inv_width in
  if f >= 1e18 then max_int / 2 else int_of_float f

(* Last entry of the list that should precede [n], walking backward
   from the tail.  Insertions overwhelmingly arrive in nondecreasing
   (time, seq) order — in particular a burst of simultaneous events
   (one multicast fan-out) appends at the tail in O(1) instead of
   walking the whole equal-time run from the front. *)
let rec ins_pos sent n cur =
  if
    cur != sent
    && (n.tm.time < cur.tm.time || (n.tm.time = cur.tm.time && n.seq < cur.seq))
  then ins_pos sent n cur.prev
  else cur

let insert t n =
  let b = bucket_of t n.tm.time in
  n.bucket <- b;
  let sent = Array.unsafe_get t.buckets (b land t.mask) in
  let p = ins_pos sent n sent.prev in
  let c = p.next in
  n.prev <- p;
  n.next <- c;
  p.next <- n;
  c.prev <- n

let unlink n =
  let p = n.prev and nx = n.next in
  p.next <- nx;
  nx.prev <- p

(* ---- resizing -------------------------------------------------------- *)

(* Dequeue the global minimum.  [scanned] bounds the linear walk across
   buckets: after a full lap with nothing due, fall back to a direct
   search over bucket fronts (each list is sorted, so the global min is
   the min of the fronts) and jump the epoch to it. *)
let rec dequeue t scanned =
  let sent = Array.unsafe_get t.buckets (t.epoch land t.mask) in
  let head = sent.next in
  if head != sent && head.bucket <= t.epoch then begin
    unlink head;
    head
  end
  else if scanned > t.mask then direct_search t
  else begin
    t.epoch <- t.epoch + 1;
    dequeue t (scanned + 1)
  end

and direct_search t =
  let n = front_min t in
  t.epoch <- n.bucket;
  unlink n;
  n

(* The earliest queued node, or [t.nil] (time [infinity]) when the
   queue is empty: each list is sorted, so it is the least front. *)
and front_min t =
  let best = ref t.nil in
  for i = 0 to t.mask do
    let front = (Array.unsafe_get t.buckets i).next in
    if
      front.tm.time < !best.tm.time
      || (front.tm.time = !best.tm.time && front.seq < !best.seq)
    then best := front
  done;
  !best

(* Retune the bucket width from a sample of up to 25 exact minima
   (Brown's heuristic): average the inter-event gaps, discard outliers
   beyond twice the average, and size buckets to ~3x the refined
   average so the active window spreads at about one event per
   bucket. *)
let estimate_width t sample sample_n =
  if sample_n < 2 then t.width
  else begin
    let gaps = sample_n - 1 in
    let total = ref 0. in
    for i = 1 to gaps do
      total := !total +. (sample.(i).tm.time -. sample.(i - 1).tm.time)
    done;
    let avg = !total /. float_of_int gaps in
    if avg <= 0. then t.width
    else begin
      let cutoff = 2. *. avg in
      let kept = ref 0 and ktotal = ref 0. in
      for i = 1 to gaps do
        let g = sample.(i).tm.time -. sample.(i - 1).tm.time in
        if g <= cutoff then begin
          incr kept;
          ktotal := !ktotal +. g
        end
      done;
      let refined = if !kept = 0 then avg else !ktotal /. float_of_int !kept in
      if refined > 0. && refined < infinity then 3. *. refined else t.width
    end
  end

(* Bucket arrays are cached across resizes: a workload that bursts and
   drains (multicast fan-out) grows and shrinks the calendar every
   burst, and reallocating thousands of sentinels each time would
   dominate the allocation profile. *)
let take_spare t nb' =
  let rec go acc = function
    | [] -> None
    | a :: rest when Array.length a = nb' ->
        t.spares <- List.rev_append acc rest;
        Some a
    | a :: rest -> go (a :: acc) rest
  in
  go [] t.spares

let resize t nbuckets' =
  let sample_n = Stdlib.min 25 t.size in
  let sample = Array.make (Stdlib.max 1 sample_n) t.nil in
  for i = 0 to sample_n - 1 do
    sample.(i) <- dequeue t 0
  done;
  let w = estimate_width t sample sample_n in
  let old = t.buckets in
  t.buckets <-
    (match take_spare t nbuckets' with
    | Some a -> a
    | None -> Array.init nbuckets' (fun _ -> new_sentinel ()));
  t.mask <- nbuckets' - 1;
  t.width <- w;
  t.inv_width <- 1. /. w;
  (* Start the scan at the clock, or at the earliest event if a clock
     moved by [advance] has left it overdue. *)
  t.epoch <-
    bucket_of t
      (if sample_n > 0 && sample.(0).tm.time < now t then sample.(0).tm.time
       else now t);
  for i = 0 to sample_n - 1 do
    insert t sample.(i)
  done;
  Array.iter
    (fun sent ->
      let cur = ref sent.next in
      while !cur != sent do
        let n = !cur in
        cur := n.next;
        insert t n
      done;
      sent.next <- sent;
      sent.prev <- sent)
    old;
  t.spares <- old :: t.spares

let maybe_grow t =
  let nb = t.mask + 1 in
  if t.size > 2 * nb then resize t (2 * nb)

let maybe_shrink t =
  let nb = t.mask + 1 in
  if nb > min_buckets && 8 * t.size < nb then resize t (nb / 2)

(* ---- scheduling ------------------------------------------------------ *)

let enqueue_node t n =
  maybe_grow t;
  insert t n;
  t.size <- t.size + 1

let at_kind t ~kind ~time fn =
  assert (time >= now t);
  assert (kind >= 0 && kind < max_kinds);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let n =
    {
      tm = { time; born = now t };
      seq;
      bucket = 0;
      fn;
      prev = t.nil;
      next = t.nil;
      live = true;
      recyclable = false;
      kind;
    }
  in
  enqueue_node t n;
  n

let at t ~time fn = at_kind t ~kind:kind_default ~time fn

let schedule_kind t ~kind ~delay fn =
  assert (delay >= 0.);
  at_kind t ~kind ~time:(now t +. delay) fn

let schedule t ~delay fn = schedule_kind t ~kind:kind_default ~delay fn

(* Fire-and-forget scheduling: no cancellation handle, node drawn from
   the free pool — the hot path for packet hops and periodic ticks. *)
let[@lint.hot] post_at_kind t ~kind ~time fn =
  assert (time >= now t);
  assert (kind >= 0 && kind < max_kinds);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let n =
    if t.pool != t.nil then begin
      let n = t.pool in
      t.pool <- n.next;
      t.pool_len <- t.pool_len - 1;
      n.tm.time <- time;
      n.tm.born <- now t;
      n.seq <- seq;
      n.fn <- fn;
      n.live <- true;
      n.kind <- kind;
      n
    end
    else
      ({
         tm = { time; born = now t };
         seq;
         bucket = 0;
         fn;
         prev = t.nil;
         next = t.nil;
         live = true;
         recyclable = true;
         kind;
       }
      [@lint.alloc "node pool empty: fresh node, recycled when it fires"])
  in
  enqueue_node t n

let[@lint.hot] post_at t ~time fn = post_at_kind t ~kind:kind_default ~time fn

let[@lint.hot] post_kind t ~kind ~delay fn =
  assert (delay >= 0.);
  post_at_kind t ~kind ~time:(now t +. delay) fn

let[@lint.hot] post t ~delay fn =
  post_at_kind t ~kind:kind_default ~time:(now t +. delay) fn

(* Move a live timer to [now + delay] under a fresh seq, drawn exactly
   where cancel+schedule would draw it, so its new (time, seq) key is
   theirs. *)
let[@lint.hot] reschedule t n ~delay =
  assert (delay >= 0.);
  assert n.live;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let now = now t in
  unlink n;
  n.tm.time <- now +. delay;
  n.tm.born <- now;
  n.seq <- seq;
  insert t n

(* Blank a node that left the queue so it retains nothing, and pool it
   if no handle can ever reference it again.  Pooled nodes reuse [next]
   as the free-list link; handle-held nodes get their links severed so
   an outstanding timer handle cannot pin retired neighbours. *)
let retire t n =
  n.live <- false;
  n.fn <- noop;
  if n.recyclable then begin
    if t.pool_len < pool_max then begin
      n.next <- t.pool;
      t.pool <- n;
      t.pool_len <- t.pool_len + 1
    end
  end
  else begin
    n.prev <- n;
    n.next <- n
  end

let cancel t n =
  if n.live then begin
    unlink n;
    t.size <- t.size - 1;
    retire t n;
    maybe_shrink t
  end

let is_pending n = n.live

let account t n =
  Array.unsafe_set t.kind_fired n.kind
    (Array.unsafe_get t.kind_fired n.kind + 1);
  Array.unsafe_set t.kind_wait n.kind
    (Array.unsafe_get t.kind_wait n.kind +. (n.tm.time -. n.tm.born))

(* Run a dequeued node.  The callback is read before the node
   is retired, so re-entrant scheduling from inside [fn] is safe. *)
let fire t n =
  t.size <- t.size - 1;
  (* An overdue event fires at the clock: time never moves back. *)
  if n.tm.time > now t then set_clock t n.tm.time;
  let fn = n.fn in
  account t n;
  retire t n;
  maybe_shrink t;
  t.processed <- t.processed + 1;
  fn ()

let exec_min t = fire t (dequeue t 0)

let every t ~period ?until fn =
  assert (period > 0.);
  match until with
  | None ->
      let rec tick () =
        fn ();
        post t ~delay:period tick
      in
      post t ~delay:period tick
  | Some stop ->
      (* Never enqueue a tick past [stop]: the last firing lands at the
         largest [k * period <= stop] and nothing outlives the
         deadline. *)
      let rec tick () =
        fn ();
        if now t +. period <= stop then post t ~delay:period tick
      in
      if now t +. period <= stop then post t ~delay:period tick

let step t =
  if t.size = 0 then false
  else begin
    exec_min t;
    true
  end

let run ?until t =
  match until with
  | None -> while t.size > 0 do exec_min t done
  | Some stop ->
      let next = ref t.nil in
      while !next == t.nil && t.size > 0 do
        let n = dequeue t 0 in
        if n.tm.time > stop then begin
          (* Not due yet: put it back untouched (same time and seq, so
             ordering is unaffected) and stop. *)
          insert t n;
          next := n
        end
        else fire t n
      done;
      set_clock t (Float.max (now t) stop);
      (* The probe above may have advanced [epoch] past buckets that
         future inserts (at times >= clock) could still land in; rewind
         it so the no-event-before-epoch invariant holds, to the
         earliest event if the clock has passed it. *)
      let first = !next.tm.time in
      t.epoch <- bucket_of t (if first < now t then first else now t)

let advance t time = if time > now t then set_clock t time
let next_time t = (front_min t).tm.time

let pending t = t.size
let events_processed t = t.processed
let kind_fired t ~kind = t.kind_fired.(kind)
let kind_wait t ~kind = t.kind_wait.(kind)
