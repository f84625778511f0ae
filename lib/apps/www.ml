module Line = struct
  type t =
    | Update of { seq : int; hb : int; url : string; retrans : bool }
    | Heartbeat of { seq : int; hb : int }

  let to_string = function
    | Update { seq; hb; url; retrans } ->
        Printf.sprintf "%s:%d.%d:UPDATE:%s"
          (if retrans then "RETRANS" else "TRANS")
          seq hb url
    | Heartbeat { seq; hb } -> Printf.sprintf "TRANS:%d.%d:HEARTBEAT" seq hb

  let parse_seqs s =
    match String.split_on_char '.' s with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some seq, Some hb when seq >= 0 && hb >= 0 -> Some (seq, hb)
        | _ -> None)
    | _ -> None

  let of_string line =
    (* URLs contain ':', so split only the first three fields. *)
    match String.split_on_char ':' line with
    | tag :: seqs :: verb :: rest -> (
        let retrans =
          match tag with
          | "TRANS" -> Some false
          | "RETRANS" -> Some true
          | _ -> None
        in
        match (retrans, parse_seqs seqs, verb) with
        | Some retrans, Some (seq, hb), "UPDATE"
          when String.concat ":" rest <> "" ->
            Ok (Update { seq; hb; url = String.concat ":" rest; retrans })
        | Some false, Some (seq, hb), "HEARTBEAT" when rest = [] ->
            Ok (Heartbeat { seq; hb })
        | Some true, Some _, "HEARTBEAT" ->
            Error "heartbeats are never retransmitted"
        | _ -> Error (Printf.sprintf "malformed line: %S" line))
    | _ -> Error (Printf.sprintf "malformed line: %S" line)

  let equal a b = a = b

  let pp fmt t = Format.pp_print_string fmt (to_string t)

  let multicast_comment line =
    (* <!MULTICAST.234.12.29.72.> *)
    let prefix = "<!MULTICAST." and suffix = ".>" in
    if
      String.length line > String.length prefix + String.length suffix
      && String.sub line 0 (String.length prefix) = prefix
      && String.sub line
           (String.length line - String.length suffix)
           (String.length suffix)
         = suffix
    then
      let body =
        String.sub line (String.length prefix)
          (String.length line - String.length prefix - String.length suffix)
      in
      match String.split_on_char '.' body with
      | [ a; b; c; d ] -> (
          match
            ( int_of_string_opt a,
              int_of_string_opt b,
              int_of_string_opt c,
              int_of_string_opt d )
          with
          | Some a, Some b, Some c, Some d
            when List.for_all (fun x -> x >= 0 && x <= 255) [ a; b; c; d ] ->
              Some (a, b, c, d)
          | _ -> None)
      | _ -> None
    else None

  let make_multicast_comment (a, b, c, d) =
    Printf.sprintf "<!MULTICAST.%d.%d.%d.%d.>" a b c d
end

module Server = struct
  type doc = { mutable content : string; mutable version : int }

  type t = { docs : (string, doc) Hashtbl.t; mutable seq : int }

  let create () = { docs = Hashtbl.create 16; seq = 0 }

  let publish t ~url ~content =
    match Hashtbl.find_opt t.docs url with
    | Some d ->
        d.content <- content;
        d.version <- d.version + 1
    | None -> Hashtbl.replace t.docs url { content; version = 1 }

  let content t ~url =
    Option.map (fun d -> d.content) (Hashtbl.find_opt t.docs url)

  let version t ~url =
    match Hashtbl.find_opt t.docs url with Some d -> d.version | None -> 0

  let modify t ~url ~content =
    publish t ~url ~content;
    t.seq <- t.seq + 1;
    Line.to_string (Line.Update { seq = t.seq; hb = 0; url; retrans = false })

  (* 4.3's "simple extension allows automatic dissemination of the
     updated document over the multicast group": the invalidation line
     plus the new content, newline-separated. *)
  let modify_with_content t ~url ~content =
    let line = modify t ~url ~content in
    line ^ "\n" ^ content
end

module Client = struct
  type page = { mutable content : string; mutable stale : bool }

  type t = { pages : (string, page) Hashtbl.t }

  let create () = { pages = Hashtbl.create 16 }

  let cache t ~url ~content =
    Hashtbl.replace t.pages url { content; stale = false }

  let on_payload t payload =
    let line_text, body =
      match String.index_opt payload '\n' with
      | None -> (payload, None)
      | Some i ->
          ( String.sub payload 0 i,
            Some (String.sub payload (i + 1) (String.length payload - i - 1))
          )
    in
    match Line.of_string line_text with
    | Error _ as e -> e
    | Ok line ->
        (match line with
        | Line.Update { url; _ } -> (
            match (Hashtbl.find_opt t.pages url, body) with
            | Some page, Some content ->
                (* Auto-dissemination: refresh in place, no reload needed. *)
                page.content <- content;
                page.stale <- false
            | Some page, None -> page.stale <- true
            | None, _ -> ())
        | Line.Heartbeat _ -> ());
        Ok line

  let needs_reload t ~url =
    match Hashtbl.find_opt t.pages url with
    | Some page -> page.stale
    | None -> false

  let reload t ~url ~content =
    match Hashtbl.find_opt t.pages url with
    | Some page ->
        page.content <- content;
        page.stale <- false
    | None -> cache t ~url ~content

  let cached t ~url =
    Option.map (fun p -> p.content) (Hashtbl.find_opt t.pages url)

  let flagged t =
    Hashtbl.fold (fun url p acc -> if p.stale then url :: acc else acc) t.pages []
    |> List.sort String.compare
end
