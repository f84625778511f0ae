(* Shared benchmark scaffolding for bench/micro.ml (BENCH_sim.json) and
   bench/udp_bench.ml (BENCH_udp.json): fastest-of-reps runs with
   minor-heap accounting, aligned console output, and the one-object-
   per-line JSON shape bench/check_trend.ml scans. *)

type result = {
  name : string;
  ops : int;
  elapsed : float; (* seconds *)
  minor_words : float; (* minor-heap words allocated during the run *)
  extra : (string * float) list;
}

type suite = { suite : string; mutable results : result list }

let suite name = { suite = name; results = [] }
let ops_per_sec r = float_of_int (max 1 r.ops) /. r.elapsed

(* Fastest of [reps] runs: wall-clock on a shared machine is noisy and
   the minimum is the best estimate of intrinsic cost.  Allocation is
   reported from the same (fastest) run. *)
let run ?(reps = 3) t ~name f =
  let best = ref None in
  for _ = 1 to reps do
    Gc.compact ();
    let w0 = Gc.minor_words () in
    let t0 = Lbrm_run.Sockmsg.monotonic_now () in
    let ops, extra = f () in
    let elapsed = Lbrm_run.Sockmsg.monotonic_now () -. t0 in
    let minor_words = Gc.minor_words () -. w0 in
    match !best with
    | Some b when b.elapsed <= elapsed -> ()
    | _ -> best := Some { name; ops; elapsed; minor_words; extra }
  done;
  let r = match !best with Some r -> r | None -> assert false in
  t.results <- r :: t.results;
  let fops = float_of_int (max 1 r.ops) in
  Printf.printf "%-20s %10d ops  %8.3f s  %12.0f ops/s  %8.1f words/op\n%!"
    name r.ops r.elapsed (ops_per_sec r)
    (r.minor_words /. fops);
  List.iter (fun (k, v) -> Printf.printf "%22s= %.6g\n" k v) r.extra;
  r

(* Append extras to an already-recorded result — for cross-benchmark
   derived numbers (e.g. batched-vs-unbatched speedup). *)
let amend t ~name kvs =
  t.results <-
    List.map
      (fun r ->
        if String.equal r.name name then { r with extra = r.extra @ kvs }
        else r)
      t.results

let emit_json t path =
  let oc = open_out path in
  let field k v = Printf.sprintf "\"%s\": %.6g" k v in
  let one r =
    let fops = float_of_int (max 1 r.ops) in
    let fields =
      [
        Printf.sprintf "\"name\": \"%s\"" r.name;
        Printf.sprintf "\"ops\": %d" r.ops;
        field "elapsed_s" r.elapsed;
        field "ops_per_sec" (ops_per_sec r);
        field "minor_words_per_op" (r.minor_words /. fops);
      ]
      @ List.map (fun (k, v) -> field k v) r.extra
    in
    "    { " ^ String.concat ", " fields ^ " }"
  in
  Printf.fprintf oc "{\n  \"suite\": \"%s\",\n  \"benchmarks\": [\n%s\n  ]\n}\n"
    t.suite
    (String.concat ",\n" (List.map one (List.rev t.results)));
  close_out oc
