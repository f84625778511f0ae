(* Unit and property tests for the lbrm_util substrate. *)

module Seqno = Lbrm_util.Seqno
module Heap = Lbrm_util.Heap
module Rng = Lbrm_util.Rng
module Stats = Lbrm_util.Stats
module Gap_tracker = Lbrm_util.Gap_tracker
module Metrics = Lbrm_util.Metrics

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)
let qtest = QCheck_alcotest.to_alcotest

(* ---- Seqno ---- *)

let seqno_basics () =
  checki "succ" 6 (Seqno.succ 5);
  checki "succ wraps" 0 (Seqno.succ (Seqno.space - 1));
  checki "diff forward" 3 (Seqno.diff 8 5);
  checki "diff backward" (-3) (Seqno.diff 5 8);
  checkb "wrapped compare" true Seqno.(Seqno.add 5 (-10) < 5);
  checkb "across wrap" true Seqno.(Seqno.space - 1 < Seqno.succ (Seqno.space - 1))

let seqno_range () =
  Alcotest.check (Alcotest.list Alcotest.int) "middle" [ 6; 7 ] (Seqno.range 5 8);
  Alcotest.check (Alcotest.list Alcotest.int) "adjacent" [] (Seqno.range 5 6);
  Alcotest.check (Alcotest.list Alcotest.int) "same" [] (Seqno.range 5 5);
  let near_wrap = Seqno.space - 2 in
  Alcotest.check (Alcotest.list Alcotest.int) "wrapping"
    [ Seqno.space - 1; 0 ]
    (Seqno.range near_wrap 1)

let seqno_prop_diff_add =
  QCheck.Test.make ~name:"seqno: diff (add s n) s = n for |n| < space/2"
    QCheck.(pair (int_bound (Seqno.space - 1)) (int_range (-1000000) 1000000))
    (fun (s, n) -> Seqno.diff (Seqno.add s n) s = n)

let seqno_prop_antisym =
  QCheck.Test.make ~name:"seqno: diff antisymmetric (mod half-space edge)"
    QCheck.(pair (int_bound (Seqno.space - 1)) (int_bound (Seqno.space - 1)))
    (fun (a, b) ->
      Seqno.diff a b = -Seqno.diff b a || Seqno.diff a b = Seqno.space / 2)

(* ---- Heap ---- *)

let heap_ordering () =
  let h = Heap.create ~dummy:0. in
  List.iter (fun p -> Heap.add h ~prio:p p) [ 5.; 1.; 3.; 2.; 4. ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.check
    (Alcotest.list (Alcotest.float 0.))
    "sorted" [ 1.; 2.; 3.; 4.; 5. ] (List.rev !out)

let heap_fifo_ties () =
  let h = Heap.create ~dummy:"" in
  Heap.add h ~prio:1. "a";
  Heap.add h ~prio:1. "b";
  Heap.add h ~prio:1. "c";
  let next () = snd (Option.get (Heap.pop h)) in
  Alcotest.check Alcotest.string "fifo a" "a" (next ());
  Alcotest.check Alcotest.string "fifo b" "b" (next ());
  Alcotest.check Alcotest.string "fifo c" "c" (next ())

let heap_prop_sorted =
  QCheck.Test.make ~name:"heap: pops are sorted"
    QCheck.(list (float_bound_inclusive 1000.))
    (fun prios ->
      let h = Heap.create ~dummy:0. in
      List.iter (fun p -> Heap.add h ~prio:p p) prios;
      let rec drain acc =
        match Heap.pop h with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      List.sort Float.compare prios = out)

(* Slot blanking: once an entry is popped, the backing array must not
   keep its value alive.  Weak pointers observe collection while the
   heap itself stays live. *)
let heap_no_retention () =
  let h = Heap.create ~dummy:(ref (-1)) in
  let n = 64 in
  let w = Weak.create n in
  let fill () =
    for i = 0 to n - 1 do
      let v = ref i in
      Weak.set w i (Some v);
      Heap.add h ~prio:(float_of_int i) v
    done
  in
  fill ();
  while Heap.pop h <> None do
    ()
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr live
  done;
  checki "no freed slot retains its value" 0 !live;
  (* Keep the heap reachable past the check: the collection above must
     be due to slot blanking, not the heap itself dying. *)
  checkb "heap still alive and empty" true
    (Heap.pop (Sys.opaque_identity h) = None)

(* ---- Rng ---- *)

let rng_determinism () =
  let a = Rng.create ~seed:9 and b = Rng.create ~seed:9 in
  for _ = 1 to 100 do
    checkf "same stream" (Rng.float a 1.) (Rng.float b 1.)
  done

let rng_bernoulli_edges () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 50 do
    checkb "p=0 never" false (Rng.bernoulli r ~p:0.);
    checkb "p=1 always" true (Rng.bernoulli r ~p:1.)
  done

let rng_exponential_mean () =
  let r = Rng.create ~seed:2 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:3.
  done;
  let mean = !sum /. float_of_int n in
  checkb (Printf.sprintf "mean %.3f near 3" mean) true (Float.abs (mean -. 3.) < 0.1)

let rng_poisson_mean () =
  let r = Rng.create ~seed:3 in
  let n = 20000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.poisson r ~mean:4.
  done;
  let mean = float_of_int !sum /. float_of_int n in
  checkb (Printf.sprintf "mean %.3f near 4" mean) true (Float.abs (mean -. 4.) < 0.15)

(* ---- Stats ---- *)

let stats_welford () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  checki "count" 8 (Stats.count s);
  checkf "mean" 5. (Stats.mean s);
  Alcotest.check (Alcotest.float 1e-6) "variance" 4.571428571428571
    (Stats.variance s);
  checkf "min" 2. (Stats.min s);
  checkf "max" 9. (Stats.max s)

let stats_percentiles () =
  let s = Stats.Sample.create () in
  for i = 1 to 100 do
    Stats.Sample.add s (float_of_int i)
  done;
  checkf "median" 50.5 (Stats.Sample.percentile s 50.);
  checkf "p0" 1. (Stats.Sample.percentile s 0.);
  checkf "p100" 100. (Stats.Sample.percentile s 100.)

(* Percentile of a sorted array, by the interpolation Sample documents. *)
let naive_percentile sorted p =
  let n = Array.length sorted in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let sample_of n f =
  let s = Stats.Sample.create () in
  for i = 0 to n - 1 do
    Stats.Sample.add s (f i)
  done;
  s

let stats_prop_sample_exact_below_cap =
  QCheck.Test.make ~count:12 ~name:"stats: sample exact up to the cap"
    QCheck.(pair (int_range 1 Stats.Sample.cap) small_nat)
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let xs = Array.init n (fun _ -> Rng.float rng 1000.) in
      let s = sample_of n (Array.get xs) in
      let sorted = Array.copy xs in
      Array.sort Float.compare sorted;
      Stats.Sample.count s = n
      && Stats.Sample.values s = xs
      && List.for_all
           (fun p -> Stats.Sample.percentile s p = naive_percentile sorted p)
           [ 0.; 1.; 25.; 50.; 90.; 99.; 100. ])

let stats_prop_sample_bounded_above_cap =
  let cap = Stats.Sample.cap in
  QCheck.Test.make ~count:6
    ~name:"stats: sample bounded and even above the cap"
    QCheck.(pair (int_range (cap + 1) (4 * cap)) small_nat)
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let xs = Array.init n (fun _ -> Rng.float rng 1.) in
      let s = sample_of n (Array.get xs) in
      let kept = Stats.Sample.values s in
      let len = Array.length kept in
      (* The retained values are the observations at a power-of-two
         stride, from the first one on. *)
      let stride = (n + len - 1) / len in
      let stride_ok =
        stride land (stride - 1) = 0
        && Array.for_all2 ( = ) kept (Array.init len (fun i -> xs.(i * stride)))
      in
      let near p want tol =
        Float.abs (Stats.Sample.percentile s p -. want) < tol
      in
      len <= cap
      && len > cap / 2
      && stride_ok
      && Stats.Sample.count s = n
      && Stats.Sample.min s = Array.fold_left Float.min infinity xs
      && Stats.Sample.max s = Array.fold_left Float.max neg_infinity xs
      && near 50. 0.5 0.02 && near 90. 0.9 0.02 && near 99. 0.99 0.01)

let stats_prop_mean_matches =
  QCheck.Test.make ~name:"stats: welford mean = naive mean"
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_inclusive 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6 *. (1. +. Float.abs naive))

let histogram_buckets () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -5.; 50. ];
  let counts = Stats.Histogram.counts h in
  checki "bucket 0 (incl. clamped low)" 2 counts.(0);
  checki "bucket 1" 2 counts.(1);
  checki "bucket 9 (incl. clamped high)" 2 counts.(9);
  checki "total" 6 (Stats.Histogram.total h)

(* ---- Gap_tracker ---- *)

let tracker_in_order () =
  let t = Gap_tracker.create () in
  checkb "first" true (Gap_tracker.note t 1 = First);
  checkb "in order" true (Gap_tracker.note t 2 = In_order);
  checkb "dup" true (Gap_tracker.note t 2 = Duplicate);
  checki "nothing missing" 0 (Gap_tracker.missing_count t)

let tracker_gap_and_fill () =
  let t = Gap_tracker.create () in
  ignore (Gap_tracker.note t 1);
  (match Gap_tracker.note t 5 with
  | Gap_opened gaps ->
      Alcotest.check (Alcotest.list Alcotest.int) "gap" [ 2; 3; 4 ] gaps
  | _ -> Alcotest.fail "expected gap");
  checkb "3 missing" true (Gap_tracker.is_missing t 3);
  checkb "fills" true (Gap_tracker.note t 3 = Fills_gap);
  Alcotest.check (Alcotest.list Alcotest.int) "remaining" [ 2; 4 ]
    (Gap_tracker.missing t)

let tracker_note_exists () =
  let t = Gap_tracker.create () in
  ignore (Gap_tracker.note t 2);
  Alcotest.check (Alcotest.list Alcotest.int) "heartbeat reveals" [ 3; 4 ]
    (Gap_tracker.note_exists t 4);
  Alcotest.check (Alcotest.list Alcotest.int) "idempotent" []
    (Gap_tracker.note_exists t 4);
  checkb "4 fills own gap" true (Gap_tracker.note t 4 = Fills_gap)

let tracker_abandon () =
  let t = Gap_tracker.create () in
  ignore (Gap_tracker.note t 1);
  ignore (Gap_tracker.note t 4);
  Gap_tracker.abandon t 2;
  Alcotest.check (Alcotest.list Alcotest.int) "2 gone" [ 3 ]
    (Gap_tracker.missing t);
  checkb "late arrival of abandoned = dup" true (Gap_tracker.note t 2 = Duplicate)

let tracker_forget_below () =
  let t = Gap_tracker.create () in
  ignore (Gap_tracker.note t 1);
  ignore (Gap_tracker.note t 8);
  let dropped = Gap_tracker.forget_below t 5 in
  Alcotest.check (Alcotest.list Alcotest.int) "dropped" [ 2; 3; 4 ] dropped;
  Alcotest.check (Alcotest.list Alcotest.int) "left" [ 5; 6; 7 ]
    (Gap_tracker.missing t)

let tracker_prop_complete_stream =
  QCheck.Test.make
    ~name:"gap_tracker: any arrival order of 1..n leaves nothing missing"
    QCheck.(int_range 1 50)
    (fun n ->
      let order = Array.init n (fun i -> i + 1) in
      let rng = Rng.create ~seed:n in
      Rng.shuffle rng order;
      let t = Gap_tracker.create () in
      Array.iter (fun s -> ignore (Gap_tracker.note t s)) order;
      Gap_tracker.missing_count t = 0 && Gap_tracker.highest t = Some n)

let tracker_prop_missing_is_complement =
  QCheck.Test.make ~name:"gap_tracker: missing = {first..max} \\ seen"
    QCheck.(list_of_size Gen.(1 -- 60) (int_range 1 80))
    (fun seqs ->
      let t = Gap_tracker.create () in
      List.iter (fun s -> ignore (Gap_tracker.note t s)) seqs;
      let seen = List.sort_uniq compare seqs in
      let hi = List.fold_left Stdlib.max 0 seen in
      let first = List.hd seqs in
      let expect =
        List.filter
          (fun i -> i > first && not (List.mem i seen))
          (List.init hi (fun i -> i + 1))
      in
      Gap_tracker.missing t = expect)

(* ---- Metrics ---- *)

let metrics_counters_and_samples () =
  let m = Metrics.create () in
  let x = Metrics.counter m "x" in
  Metrics.incr x;
  Metrics.add x 4;
  Metrics.incr (Metrics.counter m "y");
  checki "x" 5 (Metrics.count m "x");
  checki "absent" 0 (Metrics.count m "z");
  Metrics.observe (Metrics.sample m "lat") 1.;
  Metrics.observe (Metrics.sample m "lat") 3.;
  checkf "sample mean" 2. (Stats.Sample.mean (Metrics.sample m "lat"));
  checkb "count never registers" false
    (List.mem_assoc "z" (Metrics.counters m));
  Alcotest.(check (list string))
    "counters by name" [ "x"; "y" ]
    (List.map fst (Metrics.counters m))

let metrics_shape_is_fixed () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "c");
  ignore (Metrics.sample m "s");
  let raises what f =
    checkb what true
      (match f () with
      | () -> false
      | exception Invalid_argument _ -> true)
  in
  raises "counter as sample" (fun () -> ignore (Metrics.sample m "c"));
  raises "counter as gauge" (fun () -> ignore (Metrics.gauge m "c"));
  raises "sample as counter" (fun () -> ignore (Metrics.counter m "s"))

let metrics_pp () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "sent.nack") 12;
  Metrics.incr (Metrics.counter m "app.delivered");
  ignore (Metrics.sample m "empty");
  Metrics.set (Metrics.gauge m "gauge") 1.5;
  List.iter
    (Metrics.observe (Metrics.sample m "recovery_latency"))
    [ 0.5; 0.25; 1. ];
  Alcotest.(check string)
    "counters, then non-empty samples"
    "app.delivered                    1\n\
     sent.nack                        12\n\
     recovery_latency                 n=3 mean=0.5833 p50=0.5 p99=0.99\n"
    (Format.asprintf "%a" Metrics.pp m)

let () =
  Alcotest.run "util"
    [
      ( "seqno",
        [
          Alcotest.test_case "basics" `Quick seqno_basics;
          Alcotest.test_case "range" `Quick seqno_range;
          qtest seqno_prop_diff_add;
          qtest seqno_prop_antisym;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick heap_fifo_ties;
          Alcotest.test_case "no retention after pop" `Quick
            heap_no_retention;
          qtest heap_prop_sorted;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick rng_determinism;
          Alcotest.test_case "bernoulli edges" `Quick rng_bernoulli_edges;
          Alcotest.test_case "exponential mean" `Slow rng_exponential_mean;
          Alcotest.test_case "poisson mean" `Slow rng_poisson_mean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford" `Quick stats_welford;
          Alcotest.test_case "percentiles" `Quick stats_percentiles;
          qtest stats_prop_sample_exact_below_cap;
          qtest stats_prop_sample_bounded_above_cap;
          Alcotest.test_case "histogram" `Quick histogram_buckets;
          qtest stats_prop_mean_matches;
        ] );
      ( "gap_tracker",
        [
          Alcotest.test_case "in order" `Quick tracker_in_order;
          Alcotest.test_case "gap and fill" `Quick tracker_gap_and_fill;
          Alcotest.test_case "note_exists" `Quick tracker_note_exists;
          Alcotest.test_case "abandon" `Quick tracker_abandon;
          Alcotest.test_case "forget_below" `Quick tracker_forget_below;
          qtest tracker_prop_complete_stream;
          qtest tracker_prop_missing_is_complement;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and samples" `Quick
            metrics_counters_and_samples;
          Alcotest.test_case "a name keeps its shape" `Quick
            metrics_shape_is_fixed;
          Alcotest.test_case "pp: simulate report format" `Quick metrics_pp;
        ] );
    ]
