(* A workload's measured phase: wall clock, process CPU, allocation and
   GC collections accumulated over one or more measured intervals (the
   phase pauses between segments, and across the set-up of a fresh
   deployment), and the span tracer on for exactly the measured intervals
   of a traced run.  The end-to-end metrics every workload reports are
   derived here, in one place. *)

type t = {
  traced : bool;
  mutable t0 : float;
  mutable c0 : Kit.cpu;
  mutable w0 : float;
  mutable minor0 : int;
  mutable major0 : int;
  mutable wall : float;
  mutable user : float;
  mutable sys : float;
  mutable words : float;
  mutable minors : int;
  mutable majors : int;
}

type measured = {
  traced_ : bool;
  wall_ : float;
  cpu : Kit.cpu;
  words_ : float;
  minor_collections : int;
  major_collections : int;
}

let resume p =
  let gc = Gc.quick_stat () in
  p.minor0 <- gc.Gc.minor_collections;
  p.major0 <- gc.Gc.major_collections;
  p.w0 <- Gc.minor_words ();
  p.c0 <- Kit.cpu ();
  if p.traced then Span.start ();
  p.t0 <- Kit.now ()

let start ~traced =
  let p =
    {
      traced;
      t0 = 0.;
      c0 = { Kit.user = 0.; sys = 0. };
      w0 = 0.;
      minor0 = 0;
      major0 = 0;
      wall = 0.;
      user = 0.;
      sys = 0.;
      words = 0.;
      minors = 0;
      majors = 0;
    }
  in
  resume p;
  p

let pause p =
  p.wall <- p.wall +. (Kit.now () -. p.t0);
  if p.traced then Span.stop ();
  let c = Kit.cpu_since p.c0 in
  p.user <- p.user +. c.Kit.user;
  p.sys <- p.sys +. c.Kit.sys;
  p.words <- p.words +. (Gc.minor_words () -. p.w0);
  let gc = Gc.quick_stat () in
  p.minors <- p.minors + gc.Gc.minor_collections - p.minor0;
  p.majors <- p.majors + gc.Gc.major_collections - p.major0

(* Close a segment (Kit.segment) with the phase paused, so that neither
   sorting its latencies nor the throwaway set-ups ([again], timed by
   Kit.Setup), two per second of segment, are measured.  Returns the
   segment and the seconds the phase was paused. *)
let segment p ~again ~packets ~elapsed lat =
  pause p;
  let t0 = Kit.now () in
  let s = Kit.segment ~packets ~elapsed lat in
  for _ = 1 to max 1 (int_of_float (Float.round (2. *. elapsed))) do
    again ()
  done;
  let paused = Kit.now () -. t0 in
  resume p;
  (s, paused)

(* The measured totals of a paused phase. *)
let result p =
  {
    traced_ = p.traced;
    wall_ = p.wall;
    cpu = { Kit.user = p.user; sys = p.sys };
    words_ = p.words;
    minor_collections = p.minors;
    major_collections = p.majors;
  }

let finish p =
  pause p;
  result p

(* [packets] is the workload's unit of useful work done in the phase (a
   delivery to one receiver, or one packet made durable), [samples] the
   latency observations behind the segments, and [live_mb] the live heap
   at its end (Kit.live_heap_mb).  [groups] holds the per-segment rates
   and latency percentiles, grouped into segments that are alike (one
   group, except for udp_deposit's strategies): each group's quartile
   (Kit.segment_seconds), averaged over the groups. *)
let e2e m ~setup:(setup_s, setup_n) ~live_mb ~packets ~samples groups =
  let over f p =
    let per_group =
      List.map (fun g -> Kit.percentile_of (List.map f g) p) groups
    in
    List.fold_left ( +. ) 0. per_group /. float_of_int (List.length per_group)
  in
  [
    Kit.metric ~samples:setup_n "setup_s" "s" setup_s;
    Kit.metric ~samples:(List.length (List.concat groups)) "goodput_pps" "1/s"
      (over (fun s -> s.Kit.rate) 75.);
    Kit.metric ~samples "latency_p50_ms" "ms" (over (fun s -> s.Kit.p50) 25.);
    Kit.metric ~samples "latency_p99_ms" "ms" (over (fun s -> s.Kit.p99) 25.);
    Kit.metric ~samples:packets "alloc_words_per_pkt" "words"
      (m.words_ /. float_of_int (max 1 packets));
    Kit.metric "live_heap_mb" "MB" live_mb;
  ]

(* CPU seconds per packet (Kit.result.cost). *)
let cost m ~packets =
  (m.cpu.Kit.user +. m.cpu.Kit.sys) /. float_of_int (max 1 packets)

let layers m ~packets specific =
  if not m.traced_ then []
  else
    Layers.report ~wall:m.wall_ ~cpu:m.cpu
      ~minor_collections:m.minor_collections
      ~major_collections:m.major_collections ~packets specific
