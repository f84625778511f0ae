(* Segmented disk tier.

   An archive is a set of segment data files plus a manifest:

     <base>.manifest      append-only, fixed-size checksummed records
     <base>.NNNNNN.seg    data records (format below), one active at a time
     <base>.NNNNNN.idx    sorted (seq, pos, len) table for a sealed segment

   Data record format (all big-endian):
     magic   u16 = 0xA10C
     seq     u32
     epoch   u32
     length  u32
     payload bytes
     check   u32 = simple multiplicative checksum of the fields above

   Manifest record format (23 bytes, big-endian):
     magic   u16 = 0xA11F
     kind    u8            'A' activate | 'S' seal | 'C' compact | 'L' low-water
     a,b,c,d u32 each      kind-specific (see the [kind_*] constants)
     check   u32

   The manifest is the source of truth for which segments exist: on open
   we replay it (truncating a torn tail), load each sealed segment's idx
   sidecar (rebuilding it from the data file if missing or corrupt), and
   scan only the tail (active) segment record-by-record to rebuild its
   full in-memory index, truncating a torn data record.  Sealed segments
   keep only a sparse in-memory index — every [index_stride]-th entry of
   the sorted sidecar table — so a sealed lookup reads one small idx
   slice plus the record itself.

   The low-water mark ('L' records) persists the highest seq L such that
   1..L are all on disk; it deliberately excludes the in-memory store so
   a floor recovered after a crash never overstates what survived.  It
   is written once the data under it is stable: at a seal, a compaction
   and a sync.

   [append] runs for every packet a logger's store evicts, so it keeps
   its allocation to the record itself: each record (data or manifest)
   is encoded into one exactly-sized [Bytes] handed to [fs.append] as a
   string without a copy, the active segment's path and the manifest's
   are formatted once (at open and at rotation), and the membership
   and contiguity walks are plain recursions.  A seal builds its
   sidecar from flat int arrays that live only for the seal.

   All file access goes through an injected {!fs} record: lib/core is
   sans-IO, so the real (Unix-backed) implementation lives in
   Lbrm_run.File_ops and tests can drive the archive against the
   in-memory fake below. *)

module Seqno = Lbrm_util.Seqno

type fs = {
  exists : string -> bool;
  size : string -> int;
  read_at : string -> pos:int -> len:int -> string;
  append : string -> string -> unit;
  truncate : string -> len:int -> unit;
  remove : string -> unit;
  fsync : string -> unit;
}

exception Fs_error of string

let fs_error fmt = Printf.ksprintf (fun s -> raise (Fs_error s)) fmt

(* In-memory fake: one growable buffer per path, so an append copies
   only the appended bytes.  Deterministic, no ambient state;
   crash-recovery tests produce a torn tail by truncating mid-record. *)
let in_memory () =
  let files : (string, Buffer.t) Hashtbl.t = Hashtbl.create 4 in
  let get path =
    match Hashtbl.find_opt files path with
    | Some b -> b
    | None ->
        let b = Buffer.create 256 in
        Hashtbl.replace files path b;
        b
  in
  {
    exists = (fun path -> Hashtbl.mem files path);
    size = (fun path -> match Hashtbl.find_opt files path with
                        | Some b -> Buffer.length b
                        | None -> 0);
    read_at =
      (fun path ~pos ~len ->
        match Hashtbl.find_opt files path with
        | None -> ""
        | Some b ->
            let n = Buffer.length b in
            if pos >= n then "" else Buffer.sub b pos (Stdlib.min len (n - pos)));
    append = (fun path data -> Buffer.add_string (get path) data);
    truncate =
      (fun path ~len ->
        match Hashtbl.find_opt files path with
        | None -> fs_error "truncate %s: no such file" path
        | Some b -> if Buffer.length b > len then Buffer.truncate b len);
    remove = (fun path -> Hashtbl.remove files path);
    fsync = (fun _ -> ());
  }

let magic = 0xA10C
let manifest_magic = 0xA11F
let idx_magic = 0xA1D1
let manifest_record_length = 2 + 1 + (4 * 4) + 4
let idx_header_length = 2 + 4
let idx_entry_length = 4 + 4 + 4

let kind_activate = 0x41 (* 'A' a=id *)
let kind_seal = 0x53 (* 'S' a=id b=min_seq c=max_seq d=count *)
let kind_compact = 0x43 (* 'C' a=id *)
let kind_lwm = 0x4C (* 'L' a=floor *)

(* Sparse in-memory view of a sealed segment: range, density, and every
   [index_stride]-th seq of the sidecar's sorted table (checkpoint [j]
   covers table ranks [j*stride, (j+1)*stride)). *)
type sealed = {
  s_id : int;
  s_min : Seqno.t;
  s_max : Seqno.t;
  s_count : int;
  s_keys : int array;
}

type t = {
  base : string;
  manifest : string; (* manifest path, formatted once at open *)
  fs : fs;
  segment_bytes : int;
  index_stride : int;
  mutable sealed : sealed list; (* ascending id order *)
  mutable active_id : int;
  mutable active_seg : string; (* active segment path, set with active_id *)
  active_index : (Seqno.t, int) Hashtbl.t; (* seq -> record offset *)
  mutable active_size : int; (* valid bytes in the active segment *)
  mutable sealed_records : int;
  mutable contig : Seqno.t; (* 1..contig all on disk (or compacted away) *)
  mutable persisted_lwm : Seqno.t;
  mutable rotations : int;
  mutable compactions : int;
  mutable last_sealed : int; (* id of the most recently sealed segment, 0 if none *)
}

let seg_path base id = Printf.sprintf "%s.%06d.seg" base id
let idx_path base id = Printf.sprintf "%s.%06d.idx" base id
let manifest_path base = base ^ ".manifest"

let rec fold_payload payload i n acc =
  if i = n then acc
  else
    fold_payload payload (i + 1) n
      ((acc * 31) + Char.code (String.unsafe_get payload i))

let[@lint.hot] checksum ~seq ~epoch ~payload =
  let n = String.length payload in
  fold_payload payload 0 n (magic + seq + epoch + n) land 0x3fffffff

let mcheck ~kind ~a ~b ~c ~d =
  let acc = (((((((manifest_magic * 31) + kind) * 31) + a) * 31) + b) * 31) + c in
  (((acc * 31) + d) land 0x3fffffff)

let header_length = 2 + 4 + 4 + 4
let record_length payload = header_length + String.length payload + 4

let get_u16 s pos = (Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1]
let get_u32 s pos = (get_u16 s pos lsl 16) lor get_u16 s (pos + 2)

let set_u16 b pos v = Bytes.set_uint16_be b pos (v land 0xffff)

let set_u32 b pos v =
  set_u16 b pos (v lsr 16);
  set_u16 b (pos + 2) v

(* Every record is encoded straight into one exactly-sized [Bytes] and
   handed to [fs.append] as a string without a copy: nothing touches
   the bytes afterwards. *)
let log_manifest t ~kind ~a ~b ~c ~d =
  let r = Bytes.create manifest_record_length in
  set_u16 r 0 manifest_magic;
  Bytes.set_uint8 r 2 kind;
  set_u32 r 3 a;
  set_u32 r 7 b;
  set_u32 r 11 c;
  set_u32 r 15 d;
  set_u32 r 19 (mcheck ~kind ~a ~b ~c ~d);
  t.fs.append t.manifest (Bytes.unsafe_to_string r)

(* Read one data record at [pos] of segment file [path]; None on
   EOF/corruption (incl. short reads: a torn tail).  The payload string
   is returned exactly as read — no intermediate copy — so the logger
   can hand it straight to the wire path. *)
let read_data_record t path pos =
  let header = t.fs.read_at path ~pos ~len:header_length in
  if String.length header < header_length then None
  else if get_u16 header 0 <> magic then None
  else
    let seq = get_u32 header 2 in
    let epoch = get_u32 header 6 in
    let len = get_u32 header 10 in
    if len < 0 || len > 16 * 1024 * 1024 then None
    else
      let payload = t.fs.read_at path ~pos:(pos + header_length) ~len in
      if String.length payload < len then None
      else
        let tail = t.fs.read_at path ~pos:(pos + header_length + len) ~len:4 in
        if String.length tail < 4 then None
        else if get_u32 tail 0 = checksum ~seq ~epoch ~payload then
          Some (seq, epoch, payload)
        else None

(* ---------- sealed-segment sidecars ---------- *)

let idx_check_entry acc ~seq ~pos ~len =
  (((((((acc * 31) + seq) * 31) + pos) * 31) + len) land 0x3fffffff)

(* The sidecar of segment [id]: entry [i] is [(seqs.(i), poss.(i),
   lens.(i))], sorted by seq. *)
let write_idx t id seqs poss lens =
  let n = Array.length seqs in
  let b = Bytes.create (idx_header_length + (n * idx_entry_length) + 4) in
  set_u16 b 0 idx_magic;
  set_u32 b 2 n;
  let acc = ref ((idx_magic + n) land 0x3fffffff) in
  for i = 0 to n - 1 do
    let off = idx_header_length + (i * idx_entry_length) in
    set_u32 b off seqs.(i);
    set_u32 b (off + 4) poss.(i);
    set_u32 b (off + 8) lens.(i);
    acc := idx_check_entry !acc ~seq:seqs.(i) ~pos:poss.(i) ~len:lens.(i)
  done;
  set_u32 b (Bytes.length b - 4) !acc;
  let ip = idx_path t.base id in
  if t.fs.exists ip then t.fs.truncate ip ~len:0;
  t.fs.append ip (Bytes.unsafe_to_string b);
  t.fs.fsync ip

(* The sparse key array over [count] sorted seqs, [seq_at rank] for
   ranks 0..count-1. *)
let checkpoints t count seq_at =
  let ncp = (count + t.index_stride - 1) / t.index_stride in
  Array.init (Stdlib.max ncp 1) (fun j ->
      if j * t.index_stride < count then seq_at (j * t.index_stride) else 0)

(* The in-memory view of sealed segment [id] holding the sorted [seqs]. *)
let sealed_of t id seqs =
  let n = Array.length seqs in
  if n = 0 then
    { s_id = id; s_min = 1; s_max = 0; s_count = 0; s_keys = [| 0 |] }
  else
    {
      s_id = id;
      s_min = seqs.(0);
      s_max = seqs.(n - 1);
      s_count = n;
      s_keys = checkpoints t n (Array.get seqs);
    }

(* Load a sealed segment's sparse index from its sidecar; None if the
   sidecar is missing or fails validation. *)
let load_idx t id =
  let ip = idx_path t.base id in
  if not (t.fs.exists ip) then None
  else
    let sz = t.fs.size ip in
    if sz < idx_header_length + 4 then None
    else
      let data = t.fs.read_at ip ~pos:0 ~len:sz in
      if String.length data < sz then None
      else if get_u16 data 0 <> idx_magic then None
      else
        let n = get_u32 data 2 in
        if sz <> idx_header_length + (n * idx_entry_length) + 4 then None
        else begin
          let acc = ref ((idx_magic + n) land 0x3fffffff) in
          for i = 0 to n - 1 do
            let off = idx_header_length + (i * idx_entry_length) in
            acc :=
              idx_check_entry !acc ~seq:(get_u32 data off)
                ~pos:(get_u32 data (off + 4))
                ~len:(get_u32 data (off + 8))
          done;
          if get_u32 data (sz - 4) <> !acc || n = 0 then None
          else
            let seq_at rank =
              get_u32 data (idx_header_length + (rank * idx_entry_length))
            in
            Some
              {
                s_id = id;
                s_min = seq_at 0;
                s_max = seq_at (n - 1);
                s_count = n;
                s_keys = checkpoints t n seq_at;
              }
        end

(* Scan a segment's data records sequentially (used when the idx
   sidecar is lost and for {!iter}).  Stops at the first bad record. *)
let scan_segment t path f =
  let flen = if t.fs.exists path then t.fs.size path else 0 in
  let rec scan pos =
    if pos >= flen then pos
    else
      match read_data_record t path pos with
      | Some (seq, epoch, payload) ->
          f ~seq ~epoch ~payload ~pos;
          scan (pos + record_length payload)
      | None -> pos
  in
  scan 0

(* Rebuild a sealed segment's sidecar by scanning its data file. *)
let rebuild_sealed t id =
  let entries = ref [] in
  ignore
    (scan_segment t (seg_path t.base id) (fun ~seq ~epoch:_ ~payload ~pos ->
         entries := (seq, pos, record_length payload) :: !entries));
  let entries = Array.of_list !entries in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) entries;
  let seqs = Array.map (fun (seq, _, _) -> seq) entries in
  write_idx t id seqs
    (Array.map (fun (_, pos, _) -> pos) entries)
    (Array.map (fun (_, _, len) -> len) entries);
  sealed_of t id seqs

let load_sealed t id =
  match load_idx t id with Some s -> s | None -> rebuild_sealed t id

(* Locate [seq] inside a sealed segment: binary-search the sparse
   checkpoints, then read the covered sidecar slice (at most
   [index_stride] entries).  Returns (pos, len) in the data file. *)
let sealed_locate t s seq =
  if s.s_count = 0 || seq < s.s_min || seq > s.s_max then None
  else begin
    let lo = ref 0 and hi = ref (Array.length s.s_keys - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if mid * t.index_stride < s.s_count && s.s_keys.(mid) <= seq then
        lo := mid
      else hi := mid - 1
    done;
    let r0 = !lo * t.index_stride in
    let r1 = Stdlib.min s.s_count (r0 + t.index_stride) in
    let slice =
      t.fs.read_at (idx_path t.base s.s_id)
        ~pos:(idx_header_length + (r0 * idx_entry_length))
        ~len:((r1 - r0) * idx_entry_length)
    in
    if String.length slice < (r1 - r0) * idx_entry_length then None
    else
      let rec probe i =
        if i >= r1 - r0 then None
        else
          let off = i * idx_entry_length in
          if get_u32 slice off = seq then
            Some (get_u32 slice (off + 4), get_u32 slice (off + 8))
          else probe (i + 1)
      in
      probe 0
  end

let sealed_mem t s seq =
  if s.s_count = 0 || seq < s.s_min || seq > s.s_max then false
  else if s.s_count = s.s_max - s.s_min + 1 then true (* dense: no read *)
  else Option.is_some (sealed_locate t s seq)

(* ---------- hot read path ---------- *)

(* Offset of [seq] in the active segment, or -1.  On the retransmission
   fast path this is the only per-lookup work before the payload read,
   so it must not allocate. *)
let[@lint.hot] locate t seq =
  match Hashtbl.find t.active_index seq with
  | pos -> pos
  | exception Not_found -> -1

let rec sealed_has t seq = function
  | [] -> false
  | s :: rest -> sealed_mem t s seq || sealed_has t seq rest

let mem t seq = Hashtbl.mem t.active_index seq || sealed_has t seq t.sealed

(* ---------- low-water mark ---------- *)

(* The top of the dense sealed segment holding [next], or -1. *)
let rec dense_top next = function
  | [] -> -1
  | s :: rest ->
      if
        s.s_count > 0
        && s.s_min <= next
        && next <= s.s_max
        && s.s_count = s.s_max - s.s_min + 1
      then s.s_max
      else dense_top next rest

(* Advance the archive-only contiguity floor.  Fully-contiguous sealed
   segments are jumped over without touching disk. *)
let rec advance_contig t =
  let next = t.contig + 1 in
  let top = dense_top next t.sealed in
  if top >= 0 then begin
    t.contig <- top;
    advance_contig t
  end
  else if mem t next then begin
    t.contig <- next;
    advance_contig t
  end

(* The records backing the mark must hit stable storage before the
   mark itself: a crash may then lose the L record (the floor
   understates, which is safe) but never the data under a surviving L
   record (which would overstate). *)
let log_lwm t =
  if t.contig > t.persisted_lwm then begin
    log_manifest t ~kind:kind_lwm ~a:t.contig ~b:0 ~c:0 ~d:0;
    t.persisted_lwm <- t.contig
  end

(* ---------- open ---------- *)

let activate t id =
  t.active_id <- id;
  t.active_seg <- seg_path t.base id

let scan_active t =
  let sp = t.active_seg in
  let valid =
    scan_segment t sp (fun ~seq ~epoch:_ ~payload:_ ~pos ->
        if not (Hashtbl.mem t.active_index seq) then
          Hashtbl.replace t.active_index seq pos)
  in
  let flen = if t.fs.exists sp then t.fs.size sp else 0 in
  if flen > valid then t.fs.truncate sp ~len:valid;
  t.active_size <- valid

(* Seal a stale open segment left behind by a crash between manifest
   records: scan it, write its sidecar, and record the seal. *)
let rescan_and_seal t id =
  let s = rebuild_sealed t id in
  log_manifest t ~kind:kind_seal ~a:id ~b:s.s_min ~c:s.s_max ~d:s.s_count;
  t.sealed <- t.sealed @ [ s ];
  t.sealed_records <- t.sealed_records + s.s_count;
  if id > t.last_sealed then t.last_sealed <- id

let open_ ?(segment_bytes = 262144) ?(index_stride = 8) ?lwm_stride:_ ~fs base =
  try
    let mpath = manifest_path base in
    let mlen = if fs.exists mpath then fs.size mpath else 0 in
    let nrec = mlen / manifest_record_length in
    let data = if mlen = 0 then "" else fs.read_at mpath ~pos:0 ~len:mlen in
    let states : (int, [ `Open | `Sealed ]) Hashtbl.t = Hashtbl.create 8 in
    let max_id = ref 0 and lwm = ref 0 in
    let rec replay i =
      if i >= nrec then i
      else
        let off = i * manifest_record_length in
        if String.length data < off + manifest_record_length then i
        else if get_u16 data off <> manifest_magic then i
        else
          let kind = Char.code data.[off + 2] in
          let a = get_u32 data (off + 3) in
          let b = get_u32 data (off + 7) in
          let c = get_u32 data (off + 11) in
          let d = get_u32 data (off + 15) in
          if get_u32 data (off + 19) <> mcheck ~kind ~a ~b ~c ~d then i
          else if kind = kind_activate then begin
            Hashtbl.replace states a `Open;
            if a > !max_id then max_id := a;
            replay (i + 1)
          end
          else if kind = kind_seal then begin
            Hashtbl.replace states a `Sealed;
            replay (i + 1)
          end
          else if kind = kind_compact then begin
            Hashtbl.remove states a;
            replay (i + 1)
          end
          else if kind = kind_lwm then begin
            if a > !lwm then lwm := a;
            replay (i + 1)
          end
          else i
    in
    let valid = replay 0 in
    if mlen > valid * manifest_record_length then
      fs.truncate mpath ~len:(valid * manifest_record_length);
    let t =
      {
        base;
        manifest = mpath;
        fs;
        segment_bytes;
        index_stride;
        sealed = [];
        active_id = 0;
        active_seg = "";
        active_index = Hashtbl.create 256;
        active_size = 0;
        sealed_records = 0;
        contig = !lwm;
        persisted_lwm = !lwm;
        rotations = 0;
        compactions = 0;
        last_sealed = 0;
      }
    in
    let sealed_ids =
      Hashtbl.fold
        (fun id st acc -> match st with `Sealed -> id :: acc | `Open -> acc)
        states []
      |> List.sort Int.compare
    in
    let open_ids =
      Hashtbl.fold
        (fun id st acc -> match st with `Open -> id :: acc | `Sealed -> acc)
        states []
      |> List.sort Int.compare
    in
    List.iter
      (fun id ->
        let s = load_sealed t id in
        t.sealed <- t.sealed @ [ s ];
        t.sealed_records <- t.sealed_records + s.s_count;
        if id > t.last_sealed then t.last_sealed <- id)
      sealed_ids;
    (* A fresh segment is scanned too: a crash may lose its activate record. *)
    (match List.rev open_ids with
    | [] ->
        let id = !max_id + 1 in
        activate t id;
        log_manifest t ~kind:kind_activate ~a:id ~b:0 ~c:0 ~d:0
    | id :: stale ->
        List.iter (fun sid -> rescan_and_seal t sid) (List.rev stale);
        activate t id);
    scan_active t;
    advance_contig t;
    Ok t
  with Fs_error e | Sys_error e -> Error e

(* ---------- rotation & append ---------- *)

(* In-place ascending heap sort.  The stdlib's sorts allocate as they
   go (an exception per sift, a closure per merge): about 3 words per
   element, which a seal would charge to every append. *)
let rec sift (a : int array) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let sort_ints a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done

(* Rank of [pos] in the ascending [offs.(lo..hi)], which holds it. *)
let rec rank_of (offs : int array) pos lo hi =
  let mid = (lo + hi) / 2 in
  if offs.(mid) < pos then rank_of offs pos (mid + 1) hi
  else if offs.(mid) > pos then rank_of offs pos lo (mid - 1)
  else mid

let seal_active t =
  let n = Hashtbl.length t.active_index in
  if n > 0 then begin
    t.fs.fsync t.active_seg;
    (* The sidecar comes from two flat arrays, the seqs and the record
       offsets, each sorted.  Records in the active segment lie back to
       back, so a record's length is the distance to the next offset. *)
    let seqs = Array.make n 0 and offs = Array.make n 0 in
    let k = ref 0 in
    Hashtbl.iter
      (fun seq pos ->
        seqs.(!k) <- seq;
        offs.(!k) <- pos;
        incr k)
      t.active_index;
    sort_ints seqs;
    sort_ints offs;
    let poss = Array.map (Hashtbl.find t.active_index) seqs in
    let lens =
      Array.map
        (fun pos ->
          let r = rank_of offs pos 0 (n - 1) in
          (if r + 1 < n then offs.(r + 1) else t.active_size) - pos)
        poss
    in
    write_idx t t.active_id seqs poss lens;
    let s = sealed_of t t.active_id seqs in
    log_manifest t ~kind:kind_seal ~a:t.active_id ~b:s.s_min ~c:s.s_max
      ~d:s.s_count;
    t.sealed <- t.sealed @ [ s ];
    t.sealed_records <- t.sealed_records + n;
    t.last_sealed <- t.active_id;
    t.rotations <- t.rotations + 1;
    activate t (t.active_id + 1);
    log_manifest t ~kind:kind_activate ~a:t.active_id ~b:0 ~c:0 ~d:0;
    (* All under the floor is fsynced: the mark rides the manifest's. *)
    log_lwm t;
    t.fs.fsync t.manifest;
    Hashtbl.reset t.active_index;
    t.active_size <- 0
  end

let rotate = seal_active

(* Every eviction at every logger lands here: the record string and
   its index bucket are the only allocations (enforced by
   [lint.hotpaths] and a Gc gate in test_transport). *)
let[@lint.hot] append t ~seq ~epoch ~payload =
  if not (mem t seq) then begin
    let len = record_length payload and plen = String.length payload in
    if Hashtbl.length t.active_index > 0 && t.active_size + len > t.segment_bytes
    then seal_active t;
    let pos = t.active_size in
    let b =
      (Bytes.create len [@lint.alloc "the record, handed over as the string fs.append writes"])
    in
    set_u16 b 0 magic;
    set_u32 b 2 seq;
    set_u32 b 6 epoch;
    set_u32 b 10 plen;
    Bytes.blit_string payload 0 b header_length plen;
    set_u32 b (header_length + plen) (checksum ~seq ~epoch ~payload);
    t.fs.append t.active_seg (Bytes.unsafe_to_string b);
    t.active_size <- pos + len;
    (Hashtbl.replace t.active_index seq pos
     [@lint.alloc "the record's index bucket, reset at the next seal"]);
    if t.contig + 1 = seq then advance_contig t
  end

(* ---------- lookup ---------- *)

let find t seq =
  match locate t seq with
  | pos when pos >= 0 -> (
      match read_data_record t t.active_seg pos with
      | Some (s, epoch, payload) when Int.equal s seq -> Some (epoch, payload)
      | _ -> None)
  | _ ->
      let rec search = function
        | [] -> None
        | s :: rest -> (
            match sealed_locate t s seq with
            | Some (pos, _len) -> (
                match read_data_record t (seg_path t.base s.s_id) pos with
                | Some (sq, epoch, payload) when Int.equal sq seq ->
                    Some (epoch, payload)
                | _ -> None)
            | None -> search rest)
      in
      search t.sealed

(* ---------- compaction ---------- *)

let sync t =
  if t.fs.exists t.active_seg then t.fs.fsync t.active_seg;
  log_lwm t;
  if t.fs.exists t.manifest then t.fs.fsync t.manifest

(* The compact records and the mark are stable before any file goes:
   a reopen bridges a compacted range only through a persisted mark. *)
let compact t ~floor =
  let gone, keep = List.partition (fun s -> s.s_max <= floor) t.sealed in
  List.iter
    (fun s -> log_manifest t ~kind:kind_compact ~a:s.s_id ~b:0 ~c:0 ~d:0)
    gone;
  if not (List.is_empty gone) then sync t;
  List.iter
    (fun s ->
      t.fs.remove (seg_path t.base s.s_id);
      t.fs.remove (idx_path t.base s.s_id);
      t.sealed_records <- t.sealed_records - s.s_count;
      t.compactions <- t.compactions + 1)
    gone;
  t.sealed <- keep;
  List.map (fun s -> s.s_id) gone

(* ---------- stats & plumbing ---------- *)

let count t = t.sealed_records + Hashtbl.length t.active_index

let close t = sync t
let active_path t = t.active_seg
let active_size t = t.active_size
let low_water t = t.contig
let rotations t = t.rotations
let compactions t = t.compactions
let last_sealed t = t.last_sealed
let segments t = List.map (fun s -> s.s_id) t.sealed @ [ t.active_id ]

let files t =
  t.manifest
  :: List.concat_map
       (fun s -> [ seg_path t.base s.s_id; idx_path t.base s.s_id ])
       t.sealed
  @ [ t.active_seg ]

let iter f t =
  List.iter
    (fun s ->
      ignore
        (scan_segment t (seg_path t.base s.s_id)
           (fun ~seq ~epoch ~payload ~pos:_ -> f ~seq ~epoch ~payload)))
    t.sealed;
  ignore
    (scan_segment t t.active_seg
       (fun ~seq ~epoch ~payload ~pos:_ -> f ~seq ~epoch ~payload))
