(** The real (Unix-backed) implementation of {!Lbrm.Archive.fs}.

    lib/core is sans-IO; runtimes inject this record when opening an
    archive: [Lbrm.Archive.open_ ~fs:File_ops.real path].  Failures
    raise {!Lbrm.Archive.Fs_error} (converted to [Error] by
    [Archive.open_]).

    {b Cached handles.}  [append] writes through one [O_APPEND]
    descriptor per path.  The descriptor is opened at the path's first
    append and lives until the path is fsynced, truncated or removed
    through [real]; [exists] answers from it before it stats.
    [Archive.close] fsyncs every path the archive holds open, so after
    it the archive's files may be removed and re-created freely.  The
    limit: a file removed or renamed behind [real] while a handle on it
    is cached (an archive still open, or a path appended to and never
    fsynced) keeps receiving the appends, into the removed file.

    {b Group commit.}  {!begin_group} and {!end_group} bracket a run of
    calls (the UDP runtime brackets every receive drain and every timer
    run); groups nest, and only the outermost {!end_group} commits.
    While a group is open:
    - [fsync p] is deferred: it only marks [p];
    - every append is held in a per-path buffer; a path whose held
      bytes include one appended while another path's fsync was
      deferred is {e tied} to the group;
    - [exists], [size], [read_at], [truncate], [remove] and [fsync] on a
      path with held bytes write them first: alone if the path is not
      tied (they depend on no deferred fsync), by committing the group
      if it is; [truncate] and [remove] of a path with a deferred fsync
      commit too;
    - the commit runs every deferred fsync, once per path, then writes
      the held bytes, one write per path.
    The archive appends a low-water record right after the fsync of the
    data under it, so the record is tied and reaches its file only
    after that fsync; the data appended after the fsync is not tied,
    so the segment's next fsync stays deferred and the low-water
    records of one group share one fsync.  Outside a group every call
    runs at once, as it always did.

    {b Errors that stick.}  A commit never raises.  A deferred fsync
    that fails keeps every byte still held out of its file, since which
    of them depended on it is not known; a held write that fails loses
    its bytes.  Each such failure stays on its path (the failed one,
    and every path whose bytes were dropped), and the next call on that
    path raises it as {!Lbrm.Archive.Fs_error}, once — where an inline
    failure would have raised, so a logger degrades its disk tier the
    same way. *)

val real : Lbrm.Archive.fs

val begin_group : unit -> unit
(** Open a group, or nest one level deeper in the open one. *)

val end_group : unit -> unit
(** Close one level; closing the outermost commits.  Never raises a
    filesystem failure (see above); raises [Invalid_argument] if no
    group is open. *)

val metrics : Lbrm_util.Metrics.t
(** The kernel calls made so far, process-wide: [file_ops.opens],
    [file_ops.writes] and [file_ops.fsyncs] count open(2), write(2) and
    fsync(2); [file_ops.commits] counts the group commits that had
    something to do. *)
