(* The real filesystem behind Lbrm.Archive.fs.

   lib/core is sans-IO: the archive asks for seven primitive file
   operations and this module supplies them with Unix.  Each call
   opens, operates and closes.  Appends are not a cold path: a logger
   spills every packet its store evicts, so in a replicated deposit
   stream each durable packet costs about 2.4 appends.  The success
   paths of [append] and [fsync] therefore allocate nothing — no
   wrapper closure, no [Fun.protect] — and close their descriptor on
   every path.  File handles are still not cached: that needs
   crash-consistency bookkeeping of its own (a handle must close when
   its path is fsynced or removed).  Unix and Sys errors surface as
   Archive.Fs_error, which Archive.open_ converts to Error. *)

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

let read_at path ~pos ~len =
  wrap "read" path (fun () ->
      if not (Sys.file_exists path) then ""
      else begin
        let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
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

let rec push fd data off len =
  if off < len then
    push fd data (off + Unix.write_substring fd data off (len - off)) len

let append path data =
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  with
  | exception Unix.Unix_error (e, _, _) -> fail "append" path e
  | fd -> (
      match push fd data 0 (String.length data) with
      | () -> close "append" path fd
      | exception Unix.Unix_error (e, _, _) -> close_failed "append" path fd e)

let fsync path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) -> fail "fsync" path e
  | fd -> (
      match Unix.fsync fd with
      | () -> close "fsync" path fd
      | exception Unix.Unix_error (e, _, _) -> close_failed "fsync" path fd e)

let real : Lbrm.Archive.fs =
  {
    exists = Sys.file_exists;
    size =
      (fun path ->
        wrap "stat" path (fun () -> (Unix.stat path).Unix.st_size));
    read_at;
    append;
    truncate =
      (fun path ~len -> wrap "truncate" path (fun () -> Unix.truncate path len));
    remove = (fun path -> wrap "remove" path (fun () -> Unix.unlink path));
    fsync;
  }
