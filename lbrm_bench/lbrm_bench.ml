(* lbrm_bench: four end-to-end LBRM workloads, each with a per-layer
   breakdown measured from outside the library (lbrm_bench/README.md).

     lbrm_bench.exe --workload NAME | --all | --smoke
                    [--seed N] [--seconds S] [--trace 0|1|FILE.jsonl]
                    [--tmp DIR]

   The seed is the only input: it drives the engine, the injected loss
   and the payloads.  An untraced run prints the end-to-end metrics; a
   traced run ([--trace 1], or a file to also write the spans to) prints
   the per-layer ones.  One JSON line per metric, then a summary object
   as the last line; the exit code is 1 when a correctness check
   failed.  [--smoke] runs every workload briefly with every check on. *)

let workloads =
  [
    ("sim_recovery", fun ~seed ~seconds ~traced ~tmp:_ ->
        Sim_recovery.run ~seed ~seconds ~traced);
    ("udp_stream", Udp_workloads.stream);
    ("udp_lossy", Udp_workloads.lossy);
    ("udp_deposit", Udp_workloads.deposit);
  ]

let usage () =
  prerr_endline
    "usage: lbrm_bench.exe (--workload NAME | --all | --smoke) [--seed N] \
     [--seconds S] [--trace 0|1|FILE] [--tmp DIR]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

type opts = {
  mutable selected : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable traced : bool;
  mutable spans : string option;
  mutable tmp : string;
}

let parse argv =
  let o =
    {
      selected = [];
      seed = 1;
      seconds = 10.;
      traced = false;
      spans = None;
      tmp = Filename.concat ".bench_build" "tmp";
    }
  in
  let num f v = match f v with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem_assoc w workloads) then usage ();
        o.selected <- o.selected @ [ w ];
        go rest
    | "--all" :: rest ->
        o.selected <- List.map fst workloads;
        go rest
    | "--smoke" :: rest ->
        (* Like the other bench smoke runs, skip the socket workloads
           where loopback UDP is unavailable: that is a fact about the
           environment, not a regression. *)
        o.selected <-
          List.filter
            (fun w -> w = "sim_recovery" || Kit.loopback_available ())
            (List.map fst workloads);
        o.seconds <- 0.5;
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- num int_of_string_opt n;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- num float_of_string_opt s;
        go rest
    | "--trace" :: "0" :: rest ->
        o.traced <- false;
        go rest
    | "--trace" :: "1" :: rest ->
        o.traced <- true;
        go rest
    | "--trace" :: file :: rest ->
        o.traced <- true;
        o.spans <- Some file;
        go rest
    | "--tmp" :: dir :: rest ->
        o.tmp <- dir;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if o.selected = [] then usage ();
  o

(* A traced run is preceded by an untraced one a quarter as long, with
   the same seed; the traced run's CPU per packet against it is the
   tracing overhead, reported as harness.trace_overhead. *)
let measure o name =
  let run = List.assoc name workloads in
  let go ~traced ~seconds =
    Span.reset ();
    Codec_est.reset ();
    run ~seed:o.seed ~seconds ~traced ~tmp:o.tmp
  in
  if not o.traced then go ~traced:false ~seconds:o.seconds
  else begin
    let reference = go ~traced:false ~seconds:(o.seconds /. 4.) in
    let r = go ~traced:true ~seconds:o.seconds in
    let overhead = (r.Kit.cost /. reference.Kit.cost) -. 1. in
    {
      r with
      layers =
        List.map
          (fun m ->
            if m.Kit.name = "harness.trace_overhead" then
              { m with value = overhead }
            else m)
          r.layers;
      attempted = r.attempted + reference.attempted;
      failed = r.failed + reference.failed;
      errors = reference.errors @ r.errors;
    }
  end

let () =
  let o = parse Sys.argv in
  let single = List.length o.selected = 1 in
  if o.traced then Span.calibrate ();
  let results =
    List.map
      (fun name ->
        let r = measure o name in
        (match o.spans with
        | Some path -> Span.dump (if single then path else path ^ "." ^ name)
        | None -> ());
        List.iter (fun e -> prerr_endline ("check failed: " ^ e)) r.Kit.errors;
        let host =
          Kit.metric ~samples:3 "host_ref_ms" "ms" (Kit.host_ref_ms ())
        in
        let shown =
          (if o.traced then r.Kit.layers else r.Kit.e2e) @ r.Kit.info @ [ host ]
        in
        List.iter
          (fun m -> print_endline (Kit.json_line ~workload:name m))
          shown;
        (name, r))
      o.selected
  in
  let ok =
    List.for_all (fun (_, r) -> r.Kit.errors = [] && r.Kit.failed = 0) results
  in
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  let metrics =
    List.concat_map
      (fun (name, r) ->
        List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
              (if single then m.Kit.name else name ^ "/" ^ m.Kit.name)
              (Kit.json_float m.Kit.value) m.Kit.unit_)
          (if o.traced then r.Kit.layers else r.Kit.e2e))
      results
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    ok
    (max 1 (sum (fun r -> r.Kit.attempted)))
    (sum (fun r -> r.Kit.failed))
    (String.concat ", " metrics);
  if not ok then exit 1
