(* lbrm-lint's own tests: drive lint_core in-process over the
   deliberately-violating fixture library (test/lint_fixtures/) and
   assert the exact findings — rule, file, line — for the single-pass
   rules and both dataflow passes ([hot-alloc] via the fixture
   manifest, [dead-telemetry]).  The clean fixture must
   produce nothing.  ~all_rules:true makes the protocol-plane rules
   apply to the fixture paths; ~root:".." resolves the cmt load paths
   (tests run from _build/default/test). *)

let fixture_dir = "lint_fixtures/.lint_fixtures.objs/byte"
let fixture_manifest = "lint_fixtures/lint.hotpaths.fixture"
let fx name = "test/lint_fixtures/" ^ name

let triple f = (f.Lint_core.rule, f.Lint_core.file, f.Lint_core.line)

let run ?(allow = []) ?(manifest = fixture_manifest) () =
  Lint_core.run ~all_rules:true ~root:".." ~allow ~manifest [ fixture_dir ]

let finding_t = Alcotest.(triple string string int)

let expected =
  [
    (* manifest-side findings report against the manifest file itself *)
    ("hot-alloc", fixture_manifest, 9);
    (* ghost entry matched nothing *)
    ("hot-alloc", fixture_manifest, 10);
    (* malformed line *)
    ("poly-compare", fx "bad_compare.ml", 6);
    ("poly-compare", fx "bad_compare.ml", 7);
    ("poly-compare", fx "bad_compare.ml", 8);
    ("poly-compare", fx "bad_compare.ml", 9);
    ("poly-compare", fx "bad_compare.ml", 14);
    ("decode-totality", fx "bad_decode.ml", 6);
    ("decode-totality", fx "bad_decode.ml", 7);
    ("decode-totality", fx "bad_decode.ml", 12);
    ("decode-totality", fx "bad_decode.ml", 17);
    ("decode-totality", fx "bad_decode.ml", 20);
    ("decode-totality", fx "bad_decode.ml", 23);
    ("catch-all", fx "bad_exn.ml", 4);
    ("catch-all", fx "bad_exn.ml", 5);
    ("obj-magic", fx "bad_exn.ml", 6);
    ("hashtbl-order", fx "bad_hashtbl.ml", 7);
    ("hashtbl-order", fx "bad_hashtbl.ml", 15);
    ("hashtbl-order", fx "bad_hashtbl.ml", 21);
    ("hot-alloc", fx "bad_hot.ml", 6);
    (* tuple *)
    ("hot-alloc", fx "bad_hot.ml", 7);
    (* Some *)
    ("hot-alloc", fx "bad_hot.ml", 8);
    (* List.map *)
    ("hot-alloc", fx "bad_hot.ml", 8);
    (* its closure argument *)
    ("hot-alloc", fx "bad_hot.ml", 9);
    (* tuple *)
    ("hot-alloc", fx "bad_hot.ml", 11);
    (* String.concat *)
    ("hot-alloc", fx "bad_hot.ml", 14);
    (* listed but lacks [@lint.hot] *)
    ("hot-alloc", fx "bad_hot.ml", 17);
    (* [@lint.hot] but unlisted *)
    ("hot-alloc", fx "bad_hot.ml", 20);
    (* justification covers nothing *)
    ("hot-alloc", fx "bad_hot.ml", 23);
    (* justification lacks a reason *)
    ("sans-io", fx "bad_io.ml", 4);
    ("sans-io", fx "bad_io.ml", 5);
    ("sans-io", fx "bad_io.ml", 6);
    ("sans-io", fx "bad_io.ml", 7);
    ("sans-io", fx "bad_io.ml", 8);
    ("sans-io", fx "bad_rng.ml", 6);
    ("sans-io", fx "bad_rng.ml", 7);
    ("sans-io", fx "bad_rng.ml", 8);
    ("raw-socket", fx "bad_socket.ml", 4);
    ("raw-socket", fx "bad_socket.ml", 5);
    ("dead-telemetry", fx "bad_telemetry.ml", 7);
    (* P_dead never emitted *)
    ("dead-telemetry", fx "bad_telemetry.ml", 8);
    (* telemetry on a record *)
    ("dead-telemetry", fx "bad_telemetry.ml", 16);
    (* counter never written *)
    ("dead-telemetry", fx "bad_telemetry.ml", 17);
    (* gauge only ever read *)
  ]

(* Findings sort by (file, line, rule): mirror that for the oracle. *)
let sort_expected l =
  List.sort
    (fun (r1, f1, l1) (r2, f2, l2) ->
      let c = String.compare f1 f2 in
      if c <> 0 then c
      else
        let c = Int.compare l1 l2 in
        if c <> 0 then c else String.compare r1 r2)
    l

let exact_findings () =
  Alcotest.check
    Alcotest.(list finding_t)
    "exact findings" (sort_expected expected)
    (List.map triple (run ()))

let clean_is_silent () =
  let noise =
    run () |> List.filter (fun f -> String.equal f.Lint_core.file (fx "clean.ml"))
  in
  Alcotest.check Alcotest.(list finding_t) "clean fixture" []
    (List.map triple noise)

let diagnostic_format () =
  (* `file:line: [rule] message` — the format CI and editors parse. *)
  match run () with
  | [] -> Alcotest.fail "fixtures should produce findings"
  | f :: _ ->
      let s = Lint_core.finding_to_string f in
      let prefix = Printf.sprintf "%s:%d: [%s] " f.Lint_core.file f.Lint_core.line f.Lint_core.rule in
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic %S starts with %S" s prefix)
        true
        (String.length s > String.length prefix
        && String.equal (String.sub s 0 (String.length prefix)) prefix)

let allowlist_suppresses_and_reports_stale () =
  let allow =
    List.filter_map Lint_core.parse_allow_line
      [
        "# grandfathered: fixture's documented cast";
        "obj-magic test/lint_fixtures/bad_exn.ml";
        "sans-io test/lint_fixtures/does_not_exist.ml  # stale";
      ]
  in
  let got = List.map triple (run ~allow ()) in
  Alcotest.(check bool)
    "allowlisted finding suppressed" false
    (List.mem ("obj-magic", fx "bad_exn.ml", 6) got);
  Alcotest.(check bool)
    "stale entry reported" true
    (List.exists (fun (r, f, _) ->
         String.equal r "stale-allow"
         && String.equal f (fx "does_not_exist.ml"))
       got);
  (* Dropping the allow entry resurfaces the finding (the acceptance
     bullet: deleting any one lint.allow entry makes @lint fail). *)
  let unsuppressed = List.map triple (run ()) in
  Alcotest.(check bool)
    "finding resurfaces without its entry" true
    (List.mem ("obj-magic", fx "bad_exn.ml", 6) unsuppressed)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  go 0

(* A stale entry naming a deleted file and one naming a live file get
   distinct messages, so the fix is obvious from the diagnostic. *)
let stale_allow_distinguishes_missing_files () =
  let allow =
    List.filter_map Lint_core.parse_allow_line
      [
        "sans-io test/lint_fixtures/does_not_exist.ml";
        "obj-magic test/lint_fixtures/clean.ml";
      ]
  in
  let stale =
    run ~allow ()
    |> List.filter (fun f -> String.equal f.Lint_core.rule "stale-allow")
  in
  let msg_for file =
    match List.find_opt (fun f -> String.equal f.Lint_core.file file) stale with
    | Some f -> f.Lint_core.msg
    | None -> Alcotest.fail ("no stale finding for " ^ file)
  in
  Alcotest.(check bool)
    "deleted file says so" true
    (contains ~needle:"no longer exists" (msg_for (fx "does_not_exist.ml")));
  Alcotest.(check bool)
    "live file says matched nothing" true
    (contains ~needle:"matched nothing" (msg_for (fx "clean.ml")))

let line_scoped_allow () =
  let allow =
    List.filter_map Lint_core.parse_allow_line
      [ "catch-all test/lint_fixtures/bad_exn.ml 4" ]
  in
  let got = List.map triple (run ~allow ()) in
  Alcotest.(check bool)
    "line 4 suppressed" false
    (List.mem ("catch-all", fx "bad_exn.ml", 4) got);
  Alcotest.(check bool)
    "line 5 still reported" true
    (List.mem ("catch-all", fx "bad_exn.ml", 5) got)

(* Satellite: the heap sentinel refactor removed the last grandfathered
   Obj.magic, so the checked-in allowlist must be (and stay) empty. *)
let checked_in_allowlist_is_empty () =
  Alcotest.(check int)
    "lint.allow has no entries" 0
    (List.length (Lint_core.load_allow "../lint.allow"))

(* The checked-in hot-path manifest must parse cleanly and be
   non-trivial; drift against the tree itself is @lint's job. *)
let checked_in_manifest_parses () =
  let entries, errs = Lint_alloc.load_manifest "../lint.hotpaths" in
  Alcotest.(check int) "no parse errors" 0 (List.length errs);
  Alcotest.(check bool) "has entries" true (List.length entries > 0)

let missing_manifest_is_a_finding () =
  let got = List.map triple (run ~manifest:"does_not_exist.hotpaths" ()) in
  Alcotest.(check bool)
    "missing manifest reported" true
    (List.mem ("hot-alloc", "does_not_exist.hotpaths", 0) got)

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "exact findings" `Quick exact_findings;
          Alcotest.test_case "clean fixture is silent" `Quick clean_is_silent;
          Alcotest.test_case "diagnostic format" `Quick diagnostic_format;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "suppresses and reports stale" `Quick
            allowlist_suppresses_and_reports_stale;
          Alcotest.test_case "stale messages distinguish missing files" `Quick
            stale_allow_distinguishes_missing_files;
          Alcotest.test_case "line-scoped entries" `Quick line_scoped_allow;
          Alcotest.test_case "checked-in allowlist is empty" `Quick
            checked_in_allowlist_is_empty;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "checked-in manifest parses" `Quick
            checked_in_manifest_parses;
          Alcotest.test_case "missing manifest is a finding" `Quick
            missing_manifest_is_a_finding;
        ] );
    ]
