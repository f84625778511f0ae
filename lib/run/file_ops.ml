(* The real filesystem behind Lbrm.Archive.fs: cached O_APPEND
   handles and group commit (the rules are in file_ops.mli).

   Appends are not a cold path: a logger spills every packet its store
   evicts, about 2.9 appends per durable packet in a replicated deposit
   stream, and the archive fsyncs its active segment before every
   low-water (L) manifest record.  So an append outside a group writes
   through a cached handle and allocates nothing, and inside a group it
   is copied into its path's held buffer.

   A path is tied once it holds a byte that came while another path's
   fsync was deferred, such as an L record behind its segment's fsync.
   Settling an untied path writes its held bytes alone: they depend on
   no deferred fsync, so the segment's next fsync stays deferred and
   the L records of a drain share one kernel fsync.  Settling a tied
   path commits the whole group.  A failed deferred fsync drops every
   byte still held, since which of them depended on it is not
   known. *)

module Metrics = Lbrm_util.Metrics

let metrics = Metrics.create ()
let opens = Metrics.counter metrics "file_ops.opens"
let writes = Metrics.counter metrics "file_ops.writes"
let fsyncs = Metrics.counter metrics "file_ops.fsyncs"
let commits = Metrics.counter metrics "file_ops.commits"

(* What this module knows about one path.  An entry exists while the
   path has a cached handle, a deferred fsync, held bytes or a failure
   to report. *)
type entry = {
  path : string;
  mutable fd : Unix.file_descr; (* the cached descriptor, iff [cached] *)
  mutable cached : bool;
  mutable held : Bytes.t; (* its first [held_len] bytes are held back *)
  mutable held_len : int;
  mutable pending : bool; (* the open group deferred an fsync *)
  mutable tied : bool; (* see the header *)
  mutable dirty : bool; (* on [dirty] *)
  mutable error : string; (* reported by the next call, or "" *)
}

let entries : (string, entry) Hashtbl.t = Hashtbl.create 16
let depth = ref 0

(* Entries the open group deferred an fsync for or held bytes of, and
   how many of them have [pending] set. *)
let dirty = ref []
let pending = ref 0

(* The largest held buffer of a forgotten entry, for the next new one:
   the active segment's entry goes whenever a commit fsyncs it and
   holds nothing after, and growing a fresh buffer each time cost 11
   words per durable packet on udp_deposit. *)
let spare = ref Bytes.empty

let fail name path e =
  raise
    (Lbrm.Archive.Fs_error
       (Printf.sprintf "%s %s: %s" name path (Unix.error_message e)))

let wrap name path f =
  try f () with
  | Unix.Unix_error (e, _, _) -> fail name path e
  | Sys_error e ->
      raise (Lbrm.Archive.Fs_error (Printf.sprintf "%s %s: %s" name path e))

(* Close [fd] after [name] on [path] succeeded. *)
let close name path fd =
  try Unix.close fd with Unix.Unix_error (e, _, _) -> fail name path e

(* Close [fd] after [name] on [path] failed with [e], and report [e]. *)
let close_failed name path fd e =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  fail name path e

let entry path =
  match Hashtbl.find entries path with
  | e -> e
  | exception Not_found ->
      let e =
        {
          path;
          fd = Unix.stdin;
          cached = false;
          held = !spare;
          held_len = 0;
          pending = false;
          tied = false;
          dirty = false;
          error = "";
        }
      in
      spare := Bytes.empty;
      Hashtbl.replace entries path e;
      e

let forget e =
  if not (e.cached || e.dirty || String.length e.error > 0) then begin
    Hashtbl.remove entries e.path;
    if Bytes.length e.held > Bytes.length !spare then spare := e.held;
    e.held <- Bytes.empty
  end

(* Raise the failure left for [e], once. *)
let report e =
  let msg = e.error in
  e.error <- "";
  forget e;
  raise (Lbrm.Archive.Fs_error msg)

let check e = if String.length e.error > 0 then report e

let rec push fd data off len =
  if off < len then begin
    Metrics.incr writes;
    push fd data (off + Unix.write_substring fd data off (len - off)) len
  end

let open_handle e =
  match
    Unix.openfile e.path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  with
  | exception Unix.Unix_error (err, _, _) -> fail "append" e.path err
  | fd ->
      Metrics.incr opens;
      e.fd <- fd;
      e.cached <- true

(* Close the cached handle without syncing it. *)
let release e =
  if e.cached then begin
    e.cached <- false;
    try Unix.close e.fd with Unix.Unix_error _ -> ()
  end

(* Write through [e]'s handle, opening it first if need be; a failed
   write closes the handle.  The caller decides what becomes of [e]. *)
let write e data len =
  if not e.cached then open_handle e;
  match push e.fd data 0 len with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) ->
      release e;
      fail "append" e.path err

(* Write [e]'s held bytes and empty its buffer. *)
let flush e =
  let len = e.held_len in
  e.held_len <- 0;
  write e (Bytes.unsafe_to_string e.held) len

(* The kernel fsync of [fd], which is then closed. *)
let sync_fd path fd =
  Metrics.incr fsyncs;
  match Unix.fsync fd with
  | () -> close "fsync" path fd
  | exception Unix.Unix_error (err, _, _) -> close_failed "fsync" path fd err

(* The kernel fsync of a path with no cached handle. *)
let sync_path path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (err, _, _) -> fail "fsync" path err
  | fd ->
      Metrics.incr opens;
      sync_fd path fd

(* The kernel fsync of [e]'s path, through its cached handle if it has
   one (which it then closes). *)
let sync_now e =
  if e.cached then begin
    e.cached <- false;
    sync_fd e.path e.fd
  end
  else sync_path e.path

(* Every deferred fsync, once per path, then the held bytes, one write
   per path.  Never raises: a failure stays on its path. *)
let commit () =
  Metrics.incr commits;
  let touched = !dirty in
  dirty := [];
  pending := 0;
  let failed =
    List.fold_left
      (fun failed e ->
        if not e.pending then failed
        else begin
          e.pending <- false;
          match sync_now e with
          | () -> failed
          | exception Lbrm.Archive.Fs_error msg ->
              e.error <- msg;
              if String.length failed = 0 then msg else failed
        end)
      "" touched
  in
  List.iter
    (fun e ->
      e.dirty <- false;
      e.tied <- false;
      if e.held_len > 0 then begin
        if String.length failed > 0 then begin
          e.held_len <- 0;
          if String.length e.error = 0 then
            e.error <-
              Printf.sprintf "append %s: held back by a failed fsync (%s)"
                e.path failed
        end
        else
          match flush e with
          | () -> ()
          | exception Lbrm.Archive.Fs_error msg -> e.error <- msg
      end;
      (* Kept while it has a failure to report. *)
      forget e)
    touched

let begin_group () = incr depth

let end_group () =
  if !depth <= 0 then invalid_arg "File_ops.end_group: no group is open";
  decr depth;
  match !dirty with [] -> () | _ :: _ -> if !depth = 0 then commit ()

(* Before any call but [append]: report a failure left for [path], and
   write what the open group holds of it, alone if it is untied and
   by committing the group if it is tied. *)
let settle path =
  match Hashtbl.find_opt entries path with
  | None -> ()
  | Some e ->
      check e;
      if e.held_len > 0 then
        if e.tied then begin
          commit ();
          check e
        end
        else flush e

(* Before a truncate or a remove: [settle], commit a deferred fsync of
   [path] too, and close its handle. *)
let drop path =
  settle path;
  match Hashtbl.find_opt entries path with
  | None -> ()
  | Some e ->
      if e.pending then begin
        commit ();
        check e
      end;
      release e;
      forget e

let[@lint.hot] append path data =
  let e = entry path in
  check e;
  let len = String.length data in
  if !depth = 0 then begin
    try write e data len
    with Lbrm.Archive.Fs_error _ as x ->
      forget e;
      raise x
  end
  else begin
    let need = e.held_len + len in
    if need > Bytes.length e.held then begin
      let grown =
        (Bytes.create (Stdlib.max need (2 * Bytes.length e.held))
        [@lint.alloc "held bytes outgrow their buffer, kept for reuse"])
      in
      Bytes.blit e.held 0 grown 0 e.held_len;
      e.held <- grown
    end;
    Bytes.blit_string data 0 e.held e.held_len len;
    e.held_len <- need;
    if !pending > Bool.to_int e.pending then e.tied <- true;
    if not e.dirty then begin
      e.dirty <- true;
      dirty := (e :: !dirty [@lint.alloc "first hold of a path in this group"])
    end
  end

let fsync path =
  settle path;
  if !depth > 0 then begin
    let e = entry path in
    if not e.pending then begin
      e.pending <- true;
      incr pending;
      if not e.dirty then begin
        e.dirty <- true;
        dirty := e :: !dirty
      end
    end
  end
  else
    match Hashtbl.find entries path with
    | exception Not_found -> sync_path path
    | e ->
        (* Outside a group an entry holds nothing but a cached handle. *)
        let cached = e.cached and fd = e.fd in
        e.cached <- false;
        forget e;
        if cached then sync_fd path fd else sync_path path

let exists path =
  settle path;
  match Hashtbl.find_opt entries path with
  | Some e when e.cached -> true
  | _ -> Sys.file_exists path

let size path =
  settle path;
  wrap "stat" path (fun () -> (Unix.stat path).Unix.st_size)

let read_at path ~pos ~len =
  settle path;
  wrap "read" path (fun () ->
      if not (Sys.file_exists path) then ""
      else begin
        let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
        Metrics.incr opens;
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            ignore (Unix.lseek fd pos Unix.SEEK_SET);
            let buf = Bytes.create len in
            let rec fill off =
              if off >= len then len
              else
                match Unix.read fd buf off (len - off) with
                | 0 -> off
                | n -> fill (off + n)
            in
            let got = fill 0 in
            Bytes.sub_string buf 0 got)
      end)

let truncate path ~len =
  drop path;
  wrap "truncate" path (fun () -> Unix.truncate path len)

let remove path =
  drop path;
  wrap "remove" path (fun () -> Unix.unlink path)

let real : Lbrm.Archive.fs =
  { exists; size; read_at; append; truncate; remove; fsync }
