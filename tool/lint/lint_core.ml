(* lbrm-lint: typed-AST analysis suite for the protocol plane.

   This module is the driver: it walks the .cmt files dune produces
   for every library, runs the single-pass rule list below, hands each
   typed structure to the dataflow passes (Lint_alloc [hot-alloc], on
   the Lint_cfg evaluator, and Lint_telemetry [dead-telemetry]),
   applies the allowlist, and reports.

   The rule-list pass enforces the repo invariants described in
   DESIGN.md "Static invariants":

     [sans-io]          protocol libraries (lib/util, lib/wire, lib/sim,
                        lib/core, lib/baselines) reference no Unix, no
                        wall-clock, no ambient randomness, no channels.
     [poly-compare]     no polymorphic compare/hash in protocol
                        libraries; ordering operators only at types
                        whose structural order is deterministic.
     [hashtbl-order]    no Hashtbl.fold/iter whose element type flows
                        into an Io.action list, or whose result is an
                        argument of a call that takes an Io.out,
                        without an intervening sort.
     [catch-all]        no `try ... with _ ->` (or a named-but-unused
                        exception variable) anywhere; no Obj.magic
                        anywhere ([obj-magic]).
     [decode-totality]  every Codec.decode/decode_bytes result is
                        matched on both Ok and Error (or handed whole
                        to a handler); never get_ok'd, ignored or
                        asserted away.  The raising cores
                        (decode_exn, decode_bytes_exn, encode_at_exn)
                        are called only where Codec.Malformed is
                        handled: a match's scrutinee with an
                        `exception Malformed` case, or a try body.
     [raw-socket]       no direct Unix.sendto/recvfrom anywhere except
                        lib/run/sockmsg.ml, the transport's single
                        kernel-facing choke point (batching, fallback
                        and retry live there).

   Findings print as `file:line: [rule] message`.  A checked-in
   allowlist (lint.allow) grandfathers documented exceptions; stale
   allowlist entries are themselves findings, so the list can only
   shrink. *)

open Typedtree

type finding = Lint_common.finding = {
  file : string;
  line : int;
  rule : string;
  msg : string;
}

let finding_to_string = Lint_common.finding_to_string
let compare_finding = Lint_common.compare_finding

(* --- allowlist ------------------------------------------------------- *)

type allow_entry = {
  a_rule : string;
  a_file : string;
  a_line : int option; (* None: whole file for that rule *)
  mutable a_used : bool;
}

let parse_allow_line ln =
  let ln =
    match String.index_opt ln '#' with
    | Some i -> String.sub ln 0 i
    | None -> ln
  in
  match
    String.split_on_char ' ' ln
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  with
  | [] -> None
  | [ a_rule; a_file ] -> Some { a_rule; a_file; a_line = None; a_used = false }
  | [ a_rule; a_file; line ] -> (
      match int_of_string_opt line with
      | Some n -> Some { a_rule; a_file; a_line = Some n; a_used = false }
      | None -> Some { a_rule; a_file = a_file ^ " " ^ line; a_line = None; a_used = false })
  | _ -> None

let load_allow path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | ln -> go (match parse_allow_line ln with Some e -> e :: acc | None -> acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []

let allowed entries f =
  List.exists
    (fun e ->
      let hit =
        String.equal e.a_rule f.rule
        && String.equal e.a_file f.file
        && match e.a_line with None -> true | Some l -> l = f.line
      in
      if hit then e.a_used <- true;
      hit)
    entries

(* --- path normalisation (see Lint_common) ------------------------------ *)

let norm_path = Lint_common.norm_path

(* --- type inspection -------------------------------------------------- *)

let type_mentions pred ty =
  let visited = Hashtbl.create 16 in
  let found = ref false in
  let rec go ty =
    let id = Types.get_id ty in
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      (match Types.get_desc ty with
      | Types.Tconstr (p, _, _) -> if pred p then found := true
      | _ -> ());
      Btype.iter_type_expr go ty
    end
  in
  go ty;
  !found

let mentions_channel ty =
  type_mentions
    (fun p ->
      match Path.last p with
      | "in_channel" | "out_channel" -> true
      | _ -> false)
    ty

(* Inside lib/core the paths read [Lbrm.Io.action] and [Lbrm.Io.out]. *)
let mentions_io_action ty =
  type_mentions (fun p -> Lint_common.path_ends_with p [ "Io"; "action" ]) ty

let mentions_io_out ty =
  type_mentions (fun p -> Lint_common.path_ends_with p [ "Io"; "out" ]) ty

(* Types at which the structural order of polymorphic comparison
   operators is deterministic and representation-independent. *)
let rec order_safe env ty =
  let ty = try Ctype.expand_head env ty with _ -> ty in
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> (
      match norm_path p with
      | "int" | "char" | "bool" | "unit" | "float" | "string" | "bytes"
      | "int32" | "int64" | "nativeint" ->
          true
      | "list" | "option" | "array" | "ref" -> List.for_all (order_safe env) args
      | _ -> false)
  | Types.Ttuple l -> List.for_all (order_safe env) l
  | _ -> false

(* --- ident classification --------------------------------------------- *)

let sys_banned =
  [
    "Sys.time"; "Sys.file_exists"; "Sys.remove"; "Sys.rename"; "Sys.readdir";
    "Sys.command"; "Sys.getenv"; "Sys.getenv_opt"; "Sys.chdir"; "Sys.getcwd";
    "Sys.is_directory";
  ]

let stdio_banned =
  [
    "stdin"; "stdout"; "stderr"; "print_char"; "print_string"; "print_bytes";
    "print_int"; "print_float"; "print_endline"; "print_newline"; "prerr_char";
    "prerr_string"; "prerr_bytes"; "prerr_int"; "prerr_float"; "prerr_endline";
    "prerr_newline"; "read_line"; "read_int"; "read_int_opt"; "read_float";
    "read_float_opt";
  ]

let has_prefix = Lint_common.has_prefix

(* [sans-io] violation message for an ident, if any. *)
let sans_io_violation path ty =
  let n = norm_path path in
  let head = Ident.name (Path.head path) in
  if String.equal head "Unix" || String.equal head "UnixLabels" then
    Some (Printf.sprintf "reference to %s: protocol libraries are sans-IO" n)
  else if List.mem n sys_banned then
    Some (Printf.sprintf "%s reads ambient system state" n)
  else if String.equal n "Random.self_init" || String.equal n "Random.State.make_self_init"
  then Some (n ^ ": nondeterministic seeding; inject an Rng.t instead")
  else if has_prefix ~prefix:"Random." n && not (has_prefix ~prefix:"Random.State." n)
  then
    (* The global Random state is ambient mutable state shared across
       the whole program: draws depend on unrelated call sites, so a
       seeded run is not reproducible.  Random.State.* with an injected
       state is fine (Rng.t wraps one). *)
    Some (n ^ " draws from the ambient global RNG; inject an Rng.t instead")
  else if List.mem n stdio_banned then
    Some (n ^ " performs console IO; emit Io.actions instead")
  else if has_prefix ~prefix:"In_channel." n || has_prefix ~prefix:"Out_channel." n
  then Some (n ^ " performs channel IO; inject a file-ops record instead")
  else if
    (* Only externally-defined idents: flagging every use of a local
       variable of channel type would bury the introduction site. *)
    (match path with Path.Pident _ -> false | _ -> true) && mentions_channel ty
  then Some (Printf.sprintf "%s involves in_channel/out_channel" n)
  else None

let poly_compare_always_banned n =
  match n with
  | "compare" | "Hashtbl.hash" | "Hashtbl.seeded_hash" | "Hashtbl.hash_param" ->
      true
  | _ -> false

let poly_order_op n =
  match n with
  | "=" | "<>" | "<" | ">" | "<=" | ">=" | "min" | "max" -> true
  | _ -> false

let is_ident_named names e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> List.mem (norm_path p) names
  | _ -> false

let rec is_sort_app e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match norm_path p with
      | "List.sort" | "List.stable_sort" | "List.fast_sort" | "List.sort_uniq"
      | "Array.sort" | "Array.stable_sort" ->
          true
      | _ -> false)
  | Texp_apply (f, _) -> is_sort_app f
  | _ -> false

let is_hashtbl_traversal e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match norm_path p with
      | "Hashtbl.fold" | "Hashtbl.iter" | "Hashtbl.to_seq"
      | "Hashtbl.to_seq_keys" | "Hashtbl.to_seq_values" ->
          Some (norm_path p)
      | _ -> None)
  | _ -> None

let rec is_decode_app e =
  match e.exp_desc with
  | Texp_apply (f, _) -> is_decode_app f
  | Texp_ident (p, _, _) -> (
      match Path.last p with
      | "decode" | "decode_bytes" ->
          (* Codec.decode / Lbrm_wire__Codec.decode / open Codec *)
          let n = norm_path p in
          has_prefix ~prefix:"Codec." n
      | _ -> false)
  | _ -> false

(* The codec's raising cores: each reports malformed input (or an
   unencodable message) as [Codec.Malformed]. *)
let is_raising_core p =
  match Path.last p with
  | "decode_exn" | "decode_bytes_exn" | "encode_at_exn" ->
      has_prefix ~prefix:"Codec." (norm_path p)
  | _ -> false

(* --- the walker -------------------------------------------------------- *)

type ctx = {
  src : string; (* source path as recorded in the cmt *)
  protocol : bool; (* rules 1 and 2 apply *)
  mutable sorted_depth : int; (* > 0: inside an argument of a sort *)
  mutable malformed_handled : int;
      (* > 0: inside code whose Codec.Malformed is caught right here *)
  mutable out : finding list;
}

let emit ctx ~loc ~rule msg =
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  ctx.out <- { file = ctx.src; line; rule; msg } :: ctx.out

(* Does [e] anywhere reference ident [id]?  (catch-all: is the caught
   exception actually used by the handler?) *)
let uses_ident id e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_ident (Path.Pident i, _, _) when Ident.same i id -> found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it e;
  !found

(* Does any subexpression of [e] have a type mentioning Io.action? *)
let subexpr_mentions_action e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          if mentions_io_action x.exp_type then found := true;
          Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it e;
  !found

let rec pattern_has_catch_all : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_alias (p, _, _) -> pattern_has_catch_all p
  | Tpat_or (a, b, _) -> pattern_has_catch_all a || pattern_has_catch_all b
  | _ -> false

let pattern_catch_var : value general_pattern -> Ident.t option =
 fun p -> match p.pat_desc with Tpat_var (id, _) -> Some id | _ -> None

let rec pattern_mentions_constr : type k. string -> k general_pattern -> bool =
 fun name p ->
  match p.pat_desc with
  | Tpat_construct (_, c, _, _) -> String.equal c.Types.cstr_name name
  | Tpat_alias (p, _, _) -> pattern_mentions_constr name p
  | Tpat_or (a, b, _) ->
      pattern_mentions_constr name a || pattern_mentions_constr name b
  | Tpat_value v -> pattern_mentions_constr name (v :> value general_pattern)
  | _ -> false

let is_assert_false e =
  match e.exp_desc with
  | Texp_assert ({ exp_desc = Texp_construct (_, c, _); _ }, _) ->
      String.equal c.Types.cstr_name "false"
  | _ -> false

let case_rhs_unreachable c = is_assert_false c.c_rhs

(* A match case [exception Malformed _] (or an or-pattern holding one). *)
let rec handles_malformed : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_exception e -> pattern_mentions_constr "Malformed" e
  | Tpat_or (a, b, _) -> handles_malformed a || handles_malformed b
  | _ -> false

let lazy_env e = lazy (try Envaux.env_of_only_summary e.exp_env with _ -> e.exp_env)

(* The polymorphic comparison/hash primitives live in the Stdlib unit;
   a locally-defined [compare]/[min]/[<=] (Seqno.compare, Stats.min) is
   exactly the dedicated comparator the rule asks for. *)
let from_stdlib p =
  let head = Ident.name (Path.head p) in
  String.equal head "Stdlib" || has_prefix ~prefix:"Stdlib__" head

(* [raw-socket] — datagram syscalls outside the transport choke point.
   Sockmsg owns batching, the portable fallback and the full-buffer
   retry; a stray sendto/recvfrom silently skips all three. *)
let raw_socket_banned n =
  match n with
  | "Unix.sendto" | "Unix.recvfrom" | "UnixLabels.sendto"
  | "UnixLabels.recvfrom" ->
      true
  | _ -> false

let raw_socket_exempt src = String.equal src "lib/run/sockmsg.ml"

let inspect_ident ctx e p =
  let n = norm_path p in
  (* [obj-magic] — everywhere *)
  if String.equal n "Obj.magic" then
    emit ctx ~loc:e.exp_loc ~rule:"obj-magic"
      "Obj.magic defeats the type system; use a typed alternative"
  else if raw_socket_banned n && not (raw_socket_exempt ctx.src) then
    emit ctx ~loc:e.exp_loc ~rule:"raw-socket"
      (Printf.sprintf
         "%s bypasses the batched transport; all datagram IO goes through \
          Lbrm_run.Sockmsg"
         n)
  else if ctx.protocol then begin
    (* [sans-io] *)
    (match sans_io_violation p e.exp_type with
    | Some msg -> emit ctx ~loc:e.exp_loc ~rule:"sans-io" msg
    | None -> ());
    (* [poly-compare] *)
    if poly_compare_always_banned n && from_stdlib p then
      emit ctx ~loc:e.exp_loc ~rule:"poly-compare"
        (Printf.sprintf
           "polymorphic %s is representation-dependent; use a dedicated \
            comparator (Int.compare, String.compare, Seqno.compare, ...)"
           n)
    else if poly_order_op n && from_stdlib p then begin
      let arg_ty =
        match Types.get_desc e.exp_type with
        | Types.Tarrow (_, a, _, _) -> Some a
        | _ -> None
      in
      match arg_ty with
      | Some a when not (order_safe (Lazy.force (lazy_env e)) a) ->
          emit ctx ~loc:e.exp_loc ~rule:"poly-compare"
            (Printf.sprintf
               "polymorphic (%s) at type %s whose structural order is not \
                deterministic; use a dedicated comparator"
               n
               (Format.asprintf "%a" Printtyp.type_expr a))
      | _ -> ()
    end
  end

let inspect ctx e =
  (match e.exp_desc with
  | Texp_ident (p, _, _) when is_raising_core p && ctx.malformed_handled = 0 ->
      emit ctx ~loc:e.exp_loc ~rule:"decode-totality"
        (Printf.sprintf
           "%s raises Codec.Malformed: call it as the scrutinee of a match \
            with an `exception Codec.Malformed _` case (or in a try that \
            handles it)"
           (Path.last p))
  | Texp_ident (p, _, _) -> inspect_ident ctx e p
  | Texp_try (_, cases) ->
      List.iter
        (fun c ->
          if pattern_has_catch_all c.c_lhs then
            emit ctx ~loc:c.c_lhs.pat_loc ~rule:"catch-all"
              "catch-all `with _ ->` swallows every exception (including \
               Out_of_memory); match specific exceptions"
          else
            match pattern_catch_var c.c_lhs with
            | Some id when not (uses_ident id c.c_rhs) ->
                emit ctx ~loc:c.c_lhs.pat_loc ~rule:"catch-all"
                  "caught exception is never used: this handler silently \
                   swallows every exception; match specific exceptions"
            | _ -> ())
        cases
  | Texp_match (scrut, cases, _) when is_decode_app scrut ->
      List.iter
        (fun c ->
          if pattern_mentions_constr "Error" c.c_lhs && case_rhs_unreachable c
          then
            emit ctx ~loc:c.c_rhs.exp_loc ~rule:"decode-totality"
              "decode Error case is `assert false`: decode must stay total; \
               handle the error")
        cases
  | Texp_apply (f, args) -> (
      (* Result.get_ok (Codec.decode ...) / ignore (Codec.decode ...) *)
      let plain_args = List.filter_map (fun (_, a) -> a) args in
      (if is_ident_named [ "Result.get_ok"; "Result.get_error"; "Option.get" ] f
       then
         match plain_args with
         | [ a ] when is_decode_app a ->
             emit ctx ~loc:e.exp_loc ~rule:"decode-totality"
               "decode result forced with a partial accessor; match both Ok \
                and Error"
         | _ -> ());
      (if is_ident_named [ "ignore" ] f then
         match plain_args with
         | [ a ] when is_decode_app a ->
             emit ctx ~loc:e.exp_loc ~rule:"decode-totality"
               "decode result ignored; a dropped Error hides truncated or \
                corrupt packets"
         | _ -> ());
      (* [hashtbl-order] *)
      if ctx.protocol && ctx.sorted_depth = 0 then begin
        (match is_hashtbl_traversal f with
        | Some name
          when mentions_io_action e.exp_type
               || List.exists subexpr_mentions_action plain_args ->
            emit ctx ~loc:e.exp_loc ~rule:"hashtbl-order"
              (Printf.sprintf
                 "%s feeds Io.actions in hash-bucket order; sort the elements \
                  first (bucket order is not part of the protocol)"
                 name)
        | _ -> ());
        (* A traversal handed to a call that pushes into an Io.out:
           the callee emits in whatever order the traversal gave. *)
        if List.exists (fun a -> mentions_io_out a.exp_type) plain_args then
          List.iter
            (fun a ->
              match a.exp_desc with
              | Texp_apply (g, _) -> (
                  match is_hashtbl_traversal g with
                  | Some name ->
                      emit ctx ~loc:a.exp_loc ~rule:"hashtbl-order"
                        (Printf.sprintf
                           "%s result passed to a call that pushes into an \
                            Io.out, in hash-bucket order; sort it first"
                           name)
                  | None -> ())
              | _ -> ())
            plain_args
      end)
  | Texp_sequence (e1, _) when is_decode_app e1 ->
      emit ctx ~loc:e1.exp_loc ~rule:"decode-totality"
        "decode result discarded in sequence; match both Ok and Error"
  | _ -> ())

let make_iterator ctx =
  let open Tast_iterator in
  let handled sub x =
    ctx.malformed_handled <- ctx.malformed_handled + 1;
    sub.expr sub x;
    ctx.malformed_handled <- ctx.malformed_handled - 1
  in
  let expr sub e =
    inspect ctx e;
    match e.exp_desc with
    | Texp_match (scrut, cases, _)
      when List.exists (fun c -> handles_malformed c.c_lhs) cases ->
        handled sub scrut;
        List.iter (sub.case sub) cases
    | Texp_try (body, cases)
      when List.exists
             (fun c -> pattern_mentions_constr "Malformed" c.c_lhs)
             cases ->
        handled sub body;
        List.iter (sub.case sub) cases
    | Texp_function _ ->
        (* A closure runs later, outside any handler around its
           construction. *)
        let saved = ctx.malformed_handled in
        ctx.malformed_handled <- 0;
        default_iterator.expr sub e;
        ctx.malformed_handled <- saved
    | Texp_apply (f, args) when is_sort_app f ->
        (* Arguments of a sort are, by construction, order-laundered. *)
        sub.expr sub f;
        ctx.sorted_depth <- ctx.sorted_depth + 1;
        List.iter (fun (_, a) -> Option.iter (sub.expr sub) a) args;
        ctx.sorted_depth <- ctx.sorted_depth - 1
    | Texp_apply (f, [ (_, Some x); (_, Some g) ])
      when is_ident_named [ "|>" ] f && is_sort_app g ->
        (* Hashtbl.fold ... |> List.sort cmp *)
        ctx.sorted_depth <- ctx.sorted_depth + 1;
        sub.expr sub x;
        ctx.sorted_depth <- ctx.sorted_depth - 1;
        sub.expr sub g
    | Texp_apply (f, [ (_, Some g); (_, Some x) ])
      when is_ident_named [ "@@" ] f && is_sort_app g ->
        (* List.sort cmp @@ Hashtbl.fold ... *)
        sub.expr sub g;
        ctx.sorted_depth <- ctx.sorted_depth + 1;
        sub.expr sub x;
        ctx.sorted_depth <- ctx.sorted_depth - 1
    | _ -> default_iterator.expr sub e
  in
  let value_binding sub vb =
    (match (vb.vb_pat.pat_desc, vb.vb_expr) with
    | Tpat_any, e when is_decode_app e ->
        emit ctx ~loc:vb.vb_loc ~rule:"decode-totality"
          "decode result bound to _; match both Ok and Error"
    | _ -> ());
    default_iterator.value_binding sub vb
  in
  { default_iterator with expr; value_binding }

(* --- entry points ------------------------------------------------------ *)

let protocol_dirs =
  [ "lib/util/"; "lib/wire/"; "lib/sim/"; "lib/core/"; "lib/baselines/" ]

let classify src = List.exists (fun d -> has_prefix ~prefix:d src) protocol_dirs

(* Lint one .cmt file.  [root] resolves the relative -I paths recorded
   in the cmt (needed to reconstruct typing environments for type
   abbreviation expansion); when they do not resolve the checker falls
   back to structural type inspection.  [manifest] entries feed the
   [hot-alloc] pass; [telemetry] is the cross-file accumulator for
   [dead-telemetry] (facts are reported by Lint_telemetry.finish once
   every file has been scanned). *)
let lint_cmt ?(all_rules = false) ?(root = ".") ?manifest ?telemetry path =
  let cmt = Cmt_format.read_cmt path in
  let normalize_src src =
    (* ppx-preprocessed modules record "foo.pp.ml"; report "foo.ml". *)
    if Filename.check_suffix src ".pp.ml" then
      Filename.chop_suffix src ".pp.ml" ^ ".ml"
    else src
  in
  match (cmt.Cmt_format.cmt_sourcefile, cmt.Cmt_format.cmt_annots) with
  | Some src, Cmt_format.Implementation str
    when Filename.check_suffix src ".ml" ->
      let src = normalize_src src in
      let dirs =
        Config.standard_library
        :: List.map
             (fun d -> if Filename.is_relative d then Filename.concat root d else d)
             cmt.Cmt_format.cmt_loadpath
      in
      Load_path.init ~auto_include:Load_path.no_auto_include dirs;
      let ctx =
        {
          src;
          protocol = all_rules || classify src;
          sorted_depth = 0;
          malformed_handled = 0;
          out = [];
        }
      in
      let it = make_iterator ctx in
      it.structure it str;
      let alloc =
        match manifest with
        | Some entries -> Lint_alloc.check_structure ~manifest:entries ~src str
        | None -> []
      in
      Option.iter (fun acc -> Lint_telemetry.scan_structure acc ~src str)
        telemetry;
      List.sort compare_finding (ctx.out @ alloc)
  | _ -> []

let cmts_of_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cmt")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

(* Lint a set of .cmt files and/or directories; returns the remaining
   findings after the allowlist plus one finding per stale allowlist
   entry.  [manifest] is the path to the hot-path manifest
   (lint.hotpaths); when absent the [hot-alloc] pass is skipped.  The
   [dead-telemetry] pass always runs, accumulating across every file
   in the invocation — the whole tree must therefore be linted in one
   run for its verdict to be meaningful. *)
let run ?(all_rules = false) ?(root = ".") ?(allow = []) ?manifest paths =
  let files =
    List.concat_map
      (fun p -> if Sys.is_directory p then cmts_of_dir p else [ p ])
      paths
  in
  let entries, manifest_findings =
    match manifest with
    | None -> (None, [])
    | Some path ->
        let entries, errs = Lint_alloc.load_manifest path in
        (Some entries, errs)
  in
  let telemetry = Lint_telemetry.create () in
  let found =
    List.concat_map
      (fun f -> lint_cmt ~all_rules ~root ?manifest:entries ~telemetry f)
      files
  in
  let found =
    found @ manifest_findings
    @ (match (manifest, entries) with
      | Some path, Some entries -> Lint_alloc.finish ~manifest_file:path entries
      | _ -> [])
    @ Lint_telemetry.finish telemetry
  in
  let kept = List.filter (fun f -> not (allowed allow f)) found in
  let stale =
    List.filter_map
      (fun e ->
        if e.a_used then None
        else
          let missing =
            not (Sys.file_exists (Filename.concat root e.a_file))
          in
          Some
            {
              file = e.a_file;
              line = (match e.a_line with Some l -> l | None -> 0);
              rule = "stale-allow";
              msg =
                (if missing then
                   Printf.sprintf
                     "allowlist entry `%s %s` names a file that no longer \
                      exists; delete it"
                     e.a_rule e.a_file
                 else
                   Printf.sprintf
                     "allowlist entry `%s %s` matched nothing; delete it"
                     e.a_rule e.a_file);
            })
      allow
  in
  List.sort compare_finding (kept @ stale)
