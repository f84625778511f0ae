(* Regression gate over BENCH_sim.json.

   Usage: check_trend.exe BASELINE.json CURRENT.json [--threshold 2.0]
          [--absolute]

   Compares ops_per_sec for every benchmark present in both files and
   exits nonzero when any slowed down by more than the threshold
   factor.  CI machines differ in speed from the machine that committed
   the baseline, so by default each benchmark's slowdown ratio is
   normalized by the median ratio across all shared benchmarks — a
   uniform machine-speed factor cancels out and only benchmarks that
   regressed *relative to the rest of the suite* trip the gate.
   [--absolute] skips the normalization (same-machine comparisons).

   It also gates minor_words_per_op, which does not depend on machine
   speed: the rows are seeded, so repeated runs agree to well under a
   tenth of a word.  A row fails when it allocates more than 1% or half
   a word per op over its baseline, whichever is larger, so one extra
   word per op trips the gate on any row under 50 words/op.

   Outcome fields gate exactly: a row whose [missing], [gave_up] or
   [violations] count exceeds its baseline fails, whatever its speed,
   and so does a row whose [durable] floor (the source's durably
   logged seq at the end of a chaos drill) falls below its baseline.
   The rows are seeded, so these counts are deterministic, and a
   recovery regression that still runs fast shows up here first.

   The parser reads only the shape bench/micro.ml emits (one benchmark
   object per line, string [name], numeric [ops_per_sec],
   [minor_words_per_op] and outcome fields); it is a scanner, not a
   JSON library, on purpose — no external deps. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error e -> fail "check_trend: cannot read %s: %s" path e

(* Extract the string value following ["key":] starting at [from]. *)
let scan_string_field s key from =
  match
    let pat = "\"" ^ key ^ "\"" in
    let rec find i =
      if i + String.length pat > String.length s then None
      else if String.sub s i (String.length pat) = pat then Some i
      else find (i + 1)
    in
    find from
  with
  | None -> None
  | Some i -> (
      let rec after_colon j =
        if j >= String.length s then None
        else
          match s.[j] with
          | ':' | ' ' | '\t' -> after_colon (j + 1)
          | '"' -> (
              match String.index_from_opt s (j + 1) '"' with
              | None -> None
              | Some k -> Some (String.sub s (j + 1) (k - j - 1), k + 1))
          | _ -> None
      in
      after_colon (i + String.length ("\"" ^ key ^ "\"")))

let scan_float_field s key from upto =
  let pat = "\"" ^ key ^ "\"" in
  let rec find i =
    if i + String.length pat > upto then None
    else if String.sub s i (String.length pat) = pat then Some i
    else find (i + 1)
  in
  match find from with
  | None -> None
  | Some i ->
      let j = ref (i + String.length pat) in
      while
        !j < upto && (s.[!j] = ':' || s.[!j] = ' ' || s.[!j] = '\t')
      do
        incr j
      done;
      let k = ref !j in
      while
        !k < upto
        && (match s.[!k] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr k
      done;
      if !k > !j then float_of_string_opt (String.sub s !j (!k - !j))
      else None

type row = {
  ops : float;
  words : float option;
  outcomes : (string * float) list; (* outcome fields the row reports *)
}

(* Outcome fields, each with whether a higher value is better. *)
let outcome_fields =
  [ ("missing", false); ("gave_up", false); ("violations", false);
    ("durable", true) ]

(* name -> row for every benchmark object in the file that reports a
   positive ops_per_sec. *)
let parse path =
  let s = read_file path in
  let results = ref [] in
  let rec loop from =
    match scan_string_field s "name" from with
    | None -> ()
    | Some (name, after) ->
        let upto =
          match String.index_from_opt s after '}' with
          | Some i -> i
          | None -> String.length s
        in
        (match scan_float_field s "ops_per_sec" after upto with
        | Some ops when ops > 0. ->
            let words = scan_float_field s "minor_words_per_op" after upto in
            let outcomes =
              List.filter_map
                (fun (k, _) ->
                  Option.map
                    (fun v -> (k, v))
                    (scan_float_field s k after upto))
                outcome_fields
            in
            results := (name, { ops; words; outcomes }) :: !results
        | _ -> ());
        loop upto
  in
  loop 0;
  if !results = [] then fail "check_trend: no benchmarks found in %s" path;
  List.rev !results

(* Largest words/op a row may allocate against its baseline. *)
let words_limit base = base +. Float.max 0.5 (0.01 *. base)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 1.
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let () =
  let threshold = ref 2.0 in
  let absolute = ref false in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 1. -> threshold := f
        | _ -> fail "check_trend: bad --threshold %s" v);
        parse_args rest
    | "--absolute" :: rest ->
        absolute := true;
        parse_args rest
    | f :: rest ->
        files := f :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline_path, current_path =
    match List.rev !files with
    | [ b; c ] -> (b, c)
    | _ ->
        fail
          "usage: check_trend BASELINE.json CURRENT.json [--threshold N] \
           [--absolute]"
  in
  let baseline = parse baseline_path in
  let current = parse current_path in
  (* Per benchmark present in both files: slowdown ratio, words/op
     (baseline, current) when both report it, and the outcome fields
     that grew.  Benchmarks new in [current] have no baseline and are
     reported informationally. *)
  let shared =
    List.filter_map
      (fun (name, base) ->
        match List.assoc_opt name current with
        | Some cur ->
            let words =
              match (base.words, cur.words) with
              | Some b, Some c -> Some (b, c)
              | _ -> None
            in
            let worse =
              List.filter_map
                (fun (k, c) ->
                  match List.assoc_opt k base.outcomes with
                  | Some b
                    when (if List.assoc k outcome_fields then c < b else c > b)
                    ->
                      Some (Printf.sprintf "%s %g -> %g" k b c)
                  | _ -> None)
                cur.outcomes
            in
            Some (name, base.ops /. cur.ops, words, worse)
        | None -> None)
      baseline
  in
  if shared = [] then
    fail "check_trend: no shared benchmarks between %s and %s" baseline_path
      current_path;
  let speed_factor =
    if !absolute then 1. else median (List.map (fun (_, r, _, _) -> r) shared)
  in
  let slower ratio = ratio /. speed_factor > !threshold in
  let heavier = function Some (b, c) -> c > words_limit b | None -> false in
  let regressions =
    List.filter
      (fun (_, ratio, words, worse) ->
        slower ratio || heavier words || worse <> [])
      shared
  in
  Printf.printf
    "check_trend: %d shared benchmark(s), machine-speed factor %.3g, \
     threshold %.2gx, words/op +max(1%%, 0.5)\n"
    (List.length shared) speed_factor !threshold;
  List.iter
    (fun (name, ratio, words, worse) ->
      let norm = ratio /. speed_factor in
      let words_col =
        match words with
        | Some (b, c) -> Printf.sprintf "%10.4g -> %-10.4g words/op" b c
        | None -> ""
      in
      Printf.printf "  %-28s %6.2fx %s %s\n" name norm words_col
        (if slower ratio then "REGRESSION"
         else if heavier words then "REGRESSION (words/op)"
         else if worse <> [] then
           Printf.sprintf "REGRESSION (%s)" (String.concat ", " worse)
         else if norm > 1.2 then "slower"
         else "ok"))
    shared;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name baseline) then
        Printf.printf "  %-28s    new (no baseline)\n" name)
    current;
  if regressions <> [] then begin
    Printf.printf
      "check_trend: FAIL — %d benchmark(s) regressed (>%.2gx slower, \
       allocating more or worse outcomes)\n"
      (List.length regressions) !threshold;
    exit 1
  end
  else print_endline "check_trend: OK"
