(** Segmented disk tier for logging servers.

    §2 of the paper: "Other applications with stronger persistence needs
    may log all packets, writing them to disk once in-memory buffers are
    full", and §4.4 relies on the log as the factory's permanent record.

    An archive is a set of segment data files plus a manifest.  Records
    land in the {e active} segment; once it reaches [segment_bytes] it
    is {e sealed} — fsynced, given a sorted [(seq, pos, len)] sidecar
    index, and recorded in the manifest — and a fresh active segment is
    started.  Opening replays the manifest, loads each sealed segment's
    sidecar (keeping only a sparse in-memory sample of it, one entry
    every [index_stride]), and scans {e only the tail segment}
    record-by-record, so open cost is bounded by one segment no matter
    how much history has accumulated.  Records are individually
    checksummed; torn tails (of the manifest or the active segment) are
    detected and truncated on open.

    Sealed segments whose every sequence number is at or below the
    retention floor can be reclaimed wholesale with {!compact}.  A
    low-water mark (a manifest record at each seal, compaction and
    {!sync}, behind the fsync of the data under it) tracks the highest
    L with 1..L all {e on disk}, so a logger restarted after a crash
    can report a floor that never overstates what actually survived.

    lib/core is sans-IO, so the archive never touches the filesystem
    directly: every operation goes through an injected {!fs} record.
    The real (Unix-backed) implementation is {!Lbrm_run.File_ops.real};
    {!in_memory} is a deterministic fake for tests.

    Intended wiring: a {!Log_store} with bounded retention whose
    [on_evict] hook appends to the archive; the logger consults the
    archive when the in-memory store misses, and the payload string
    returned by {!find} is handed to the wire path without an
    intermediate copy. *)

type fs = {
  exists : string -> bool;  (** does [path] currently exist? *)
  size : string -> int;  (** current length in bytes *)
  read_at : string -> pos:int -> len:int -> string;
      (** up to [len] bytes starting at [pos]; shorter at EOF *)
  append : string -> string -> unit;
      (** append bytes at the end, creating the file if needed *)
  truncate : string -> len:int -> unit;  (** shrink to [len] bytes *)
  remove : string -> unit;  (** delete the file (compaction) *)
  fsync : string -> unit;  (** flush to stable storage *)
}
(** File operations the archive needs.  Implementations signal failure
    by raising {!Fs_error}; the archive converts that to [Error] on
    {!open_} and lets it propagate otherwise. *)

exception Fs_error of string

val in_memory : unit -> fs
(** A fresh in-memory filesystem fake (one buffer per path): fully
    deterministic, no ambient state.  Each call returns an independent
    store, persistent across {!open_} calls against the same [fs] value
    — which is how tests model crash/restart. *)

type t

val open_ :
  ?segment_bytes:int ->
  ?index_stride:int ->
  ?lwm_stride:int ->
  fs:fs ->
  string ->
  (t, string) result
(** Open or create an archive rooted at [path] (the manifest lives at
    [path ^ ".manifest"], segments at [path ^ ".NNNNNN.seg"]).  Replays
    the manifest and scans only the tail segment; corrupt tails of
    either are truncated (data before them is preserved).
    [segment_bytes] (default 256 KiB) bounds each segment;
    [index_stride] (default 8) is the sparse-index sampling interval;
    [lwm_stride] is ignored, and due for deletion. *)

val append : t -> seq:Lbrm_util.Seqno.t -> epoch:int -> payload:string -> unit
(** Persist one packet, rotating the active segment first if it is
    full (the active segment is fsynced when sealed, by {!compact}
    and by {!sync}; sealing fsyncs the sidecar too).  Re-appending a
    sequence number already held by {e any} live segment — active or
    sealed, including segments recovered across a reopen — is a
    no-op.

    This is the spill every eviction runs, so it is allocation-light:
    the record is encoded straight into one exactly-sized string that
    is handed to [fs.append] without a copy, the active segment's and
    the manifest's paths are formatted once (at open and at rotation),
    and the record's index bucket is the only other allocation (a
    [lint.hotpaths] entry).  A failed [fs.append] leaves no index
    entry. *)

val checksum : seq:int -> epoch:int -> payload:string -> int
(** The checksum that closes a data record (30 bits).  Exposed so its
    allocation-freedom can be measured. *)

val find : t -> Lbrm_util.Seqno.t -> (int * string) option
(** [(epoch, payload)] if the sequence number is archived.  Active-
    segment hits go through the in-memory index ({!locate}); sealed
    hits read one sidecar slice plus the record.  The payload string is
    the exact bytes read from the data file — no intermediate copy. *)

val locate : t -> Lbrm_util.Seqno.t -> int
(** Offset of [seq] in the active segment, or [-1] if it is not there.
    The allocation-free first step of the hot retransmission read path
    (enforced by [lint.hotpaths]). *)

val mem : t -> Lbrm_util.Seqno.t -> bool
val count : t -> int

val rotate : t -> unit
(** Seal the active segment now (no-op when it is empty). *)

val compact : t -> floor:Lbrm_util.Seqno.t -> int list
(** Remove every sealed segment whose maximum sequence number is at or
    below [floor] — whole-segment reclamation only, the active segment
    is never touched — returning the reclaimed segment ids in
    ascending order.  The compact records and the low-water mark are
    made stable before any file goes, so a reopen bridges the reclaimed
    range.  The mark is {e not} rewound: floors only ever advance, and
    a compacted-away prefix is by definition one nobody needs again. *)

val low_water : t -> Lbrm_util.Seqno.t
(** Highest L such that sequences 1..L are all archived (or were
    archived and since compacted), counting records not yet fsynced;
    it excludes any in-memory store.  A crash keeps the last persisted
    mark plus what the reopen scan finds above it, so a recovered
    floor never overstates what survived. *)

val sync : t -> unit
(** Fsync the active segment, persist the current low-water mark, and
    fsync the manifest. *)

val close : t -> unit
(** Alias for {!sync}: the archive holds no open handles of its own. *)

val active_path : t -> string
(** Path of the current active segment's data file (tests use this to
    inflict torn tails). *)

val active_size : t -> int
(** Valid bytes in the active segment. *)

val segments : t -> int list
(** Live segment ids, sealed first in ascending order, then active. *)

val files : t -> string list
(** Every file backing this archive (manifest, sealed segments and
    their sidecars, active segment) — for cleanup in benches. *)

val rotations : t -> int
(** Segments sealed since this handle was opened. *)

val compactions : t -> int
(** Segments reclaimed since this handle was opened. *)

val last_sealed : t -> int
(** Id of the most recently sealed live segment (0 if none). *)

val iter : (seq:Lbrm_util.Seqno.t -> epoch:int -> payload:string -> unit) -> t -> unit
(** All archived packets, sealed segments first (ascending id) then the
    active segment, each in append order. *)
