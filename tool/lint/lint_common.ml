(* Shared plumbing for the lbrm-lint passes: the finding type every
   pass emits, path normalisation over dune's wrapped-library name
   mangling, and helpers for reading the `lint.*` source attributes
   ([@lint.hot], [@lint.alloc "reason"], [@@lint.telemetry]) out of
   the typed AST. *)

type finding = { file : string; line : int; rule : string; msg : string }

let finding_to_string f =
  Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.msg b.msg

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* --- path normalisation ---------------------------------------------- *)

(* "Stdlib.compare" -> "compare"; "Lbrm__Io.action" -> "Io.action";
   "Stdlib__Hashtbl.hash" -> "Hashtbl.hash".  Makes ident matching
   robust against module aliasing and dune's wrapped-library name
   mangling. *)
let norm_component c =
  match String.rindex_opt c '_' with
  | Some i when i >= 1 && c.[i - 1] = '_' ->
      String.sub c (i + 1) (String.length c - i - 1)
  | _ -> c

let norm_path p =
  Path.name p
  |> String.split_on_char '.'
  |> List.map norm_component
  |> List.filter (fun c -> c <> "Stdlib")
  |> String.concat "."

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let has_suffix ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.equal (String.sub s (n - m) m) suffix

(* Does the normalised path end with [components]?  "Metrics.incr"
   matches `Metrics.incr`, `Lbrm_util.Metrics.incr` and the wrapped
   `Lbrm_util__Metrics.incr`, but not `My_metrics.incr`. *)
let path_ends_with p components =
  let want = String.concat "." components in
  let n = norm_path p in
  String.equal n want || has_suffix ~suffix:("." ^ want) n

(* --- lint.* attributes ------------------------------------------------ *)

let attr_named name (a : Parsetree.attribute) =
  String.equal a.Parsetree.attr_name.txt name

let has_attr attrs name = List.exists (attr_named name) attrs

(* The `[@lint.alloc "reason"]` payload.  [None]: attribute absent;
   [Some None]: present but with no (or a non-string) payload;
   [Some (Some s)]: present with reason [s]. *)
let attr_string attrs name =
  match List.find_opt (attr_named name) attrs with
  | None -> None
  | Some a -> (
      match a.Parsetree.attr_payload with
      | Parsetree.PStr
          [
            {
              pstr_desc =
                Pstr_eval
                  ( {
                      pexp_desc =
                        Pexp_constant (Pconst_string (s, _, _));
                      _;
                    },
                    _ );
              _;
            };
          ] ->
          Some (Some s)
      | _ -> Some None)

let attr_hot = "lint.hot"
let attr_alloc = "lint.alloc"
let attr_telemetry = "lint.telemetry"
