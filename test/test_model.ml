(* Model-based tests: the optimized data structures behind the
   protocol plane checked against naive oracles over random command
   sequences.

   - Log_store's seq-indexed circular buffer (O(1) add/get/evict,
     incremental lo/hi/contig, hashed-time-wheel expiry) vs a plain
     Map-backed store.  Drift in lo/hi/contig maintenance or in wheel
     bookkeeping shows up as a count/get/highest_contiguous mismatch.
   - Gap_tracker vs a sorted-set oracle computed in absolute (unwrapped)
     sequence positions, driven across the Seqno wrap boundary so the
     serial-arithmetic ordering is exercised where it matters.
   - Archive's segmented disk tier vs a plain Map, over random
     append/find/rotate/compact/reopen streams on the in-memory fs fake,
     including injected Fs_error on data appends and crashes that cut
     every file to its fsynced length plus a prefix of the rest: the
     recovered archive must equal the oracle minus exactly the lost
     records, and the low-water mark must never overstate what
     survived. *)

module Log_store = Lbrm.Log_store
module Archive = Lbrm.Archive
module Gap_tracker = Lbrm_util.Gap_tracker
module Seqno = Lbrm_util.Seqno
module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Log_store vs Map oracle ----------------------------------------- *)

type okv = { o_epoch : int; o_payload : string; o_at : float }

let oracle_contig m =
  match IntMap.min_binding_opt m with
  | None -> None
  | Some (lo, _) ->
      let c = ref lo in
      while IntMap.mem (!c + 1) m do
        incr c
      done;
      Some !c

let oracle_newest m =
  Option.map (fun (s, _) -> s) (IntMap.max_binding_opt m)

(* Full-state comparison; returns an error description on divergence. *)
let compare_state store ~now m =
  let probes =
    (* every oracle seq plus a band around the window's edges *)
    IntMap.fold (fun s _ acc -> s :: acc) m []
    @ (match IntMap.min_binding_opt m with
      | Some (lo, _) -> [ lo - 2; lo - 1 ]
      | None -> [])
    @
    match IntMap.max_binding_opt m with
    | Some (hi, _) -> [ hi + 1; hi + 2 ]
    | None -> []
  in
  if Log_store.count store <> IntMap.cardinal m then
    Some
      (Printf.sprintf "count %d, oracle %d" (Log_store.count store)
         (IntMap.cardinal m))
  else if
    Option.map (fun (e : Log_store.entry) -> e.seq) (Log_store.newest store)
    <> oracle_newest m
  then Some "newest diverged"
  else if Log_store.highest_contiguous store <> oracle_contig m then
    Some
      (Printf.sprintf "highest_contiguous %s, oracle %s"
         (match Log_store.highest_contiguous store with
         | Some s -> string_of_int s
         | None -> "-")
         (match oracle_contig m with
         | Some s -> string_of_int s
         | None -> "-"))
  else
    List.find_map
      (fun s ->
        let want = IntMap.find_opt s m in
        let got = Log_store.get store ~now s in
        match (want, got) with
        | None, None -> None
        | Some o, Some (e : Log_store.entry) ->
            if e.epoch = o.o_epoch && e.payload = o.o_payload then None
            else Some (Printf.sprintf "entry %d fields diverged" s)
        | Some _, None -> Some (Printf.sprintf "oracle has %d, store lost it" s)
        | None, Some _ -> Some (Printf.sprintf "store has %d, oracle does not" s))
      probes

(* Command stream for the bounded store: forward adds with jumps of
   1..3 plus re-adds within [hi-8, hi].  With [Keep_last 16] and those
   bounds the live span never exceeds the ring's bounded capacity, so
   the exact Map + FIFO-evict oracle applies (no drop-on-arrival, no
   capacity-pressure slide). *)
let prop_keep_last =
  QCheck.Test.make ~count:200 ~name:"log_store: Keep_last 16 = Map + FIFO"
    QCheck.(list_of_size Gen.(5 -- 120) (pair (int_range 0 9) (int_range 0 8)))
    (fun cmds ->
      let n = 16 in
      let store = Log_store.create ~retention:(Log_store.Keep_last n) () in
      let oracle = ref IntMap.empty in
      let cur = ref 1000 in
      let now = ref 0. in
      let add seq =
        now := !now +. 0.01;
        let payload = "p" ^ string_of_int seq in
        let fresh =
          Log_store.add store ~now:!now ~seq ~epoch:(seq mod 5) ~payload
        in
        let o_fresh = not (IntMap.mem seq !oracle) in
        if fresh <> o_fresh then
          QCheck.Test.fail_reportf "add %d freshness %b, oracle %b" seq fresh
            o_fresh;
        if fresh then begin
          oracle :=
            IntMap.add seq
              { o_epoch = seq mod 5; o_payload = payload; o_at = !now }
              !oracle;
          while IntMap.cardinal !oracle > n do
            let lo, _ = IntMap.min_binding !oracle in
            oracle := IntMap.remove lo !oracle
          done
        end
      in
      List.iter
        (fun (op, arg) ->
          if op <= 6 then begin
            (* forward add, jump 1..3 *)
            cur := !cur + 1 + (arg mod 3);
            add !cur
          end
          else add (Stdlib.max 1 (!cur - arg));
          match compare_state store ~now:!now !oracle with
          | None -> ()
          | Some msg -> QCheck.Test.fail_reportf "after add: %s" msg)
        cmds;
      true)

let prop_keep_all =
  QCheck.Test.make ~count:200 ~name:"log_store: Keep_all = Map"
    QCheck.(list_of_size Gen.(5 -- 150) (int_range 1 60))
    (fun seqs ->
      let store = Log_store.create ~retention:Log_store.Keep_all () in
      let oracle = ref IntMap.empty in
      let now = ref 0. in
      List.iter
        (fun seq ->
          now := !now +. 0.01;
          let fresh =
            Log_store.add store ~now:!now ~seq ~epoch:0
              ~payload:(string_of_int seq)
          in
          if fresh then
            oracle :=
              IntMap.add seq
                { o_epoch = 0; o_payload = string_of_int seq; o_at = !now }
                !oracle
          else if not (IntMap.mem seq !oracle) then
            QCheck.Test.fail_reportf "dup verdict on unseen %d" seq;
          match compare_state store ~now:!now !oracle with
          | None -> ()
          | Some msg -> QCheck.Test.fail_reportf "%s" msg)
        seqs;
      true)

(* Keep_for with an advancing clock: the oracle expires entries whose
   lifetime has lapsed whenever the store is asked to.  Comparisons run
   right after each explicit [expire], when both sides have dropped
   exactly the same set. *)
let prop_keep_for =
  QCheck.Test.make ~count:200
    ~name:"log_store: Keep_for = Map with timestamps"
    QCheck.(
      list_of_size
        Gen.(5 -- 120)
        (pair (int_range 0 9) (int_range 1 40)))
    (fun cmds ->
      let life = 1.0 in
      let store = Log_store.create ~retention:(Log_store.Keep_for life) () in
      let oracle = ref IntMap.empty in
      let cur = ref 5 in
      let now = ref 0. in
      let expire_oracle () =
        oracle := IntMap.filter (fun _ o -> !now -. o.o_at <= life) !oracle
      in
      List.iter
        (fun (op, arg) ->
          if op <= 5 then begin
            (* forward add after a small clock step *)
            now := !now +. (0.01 *. float_of_int arg);
            cur := !cur + 1 + (arg mod 3);
            let fresh =
              Log_store.add store ~now:!now ~seq:!cur ~epoch:1
                ~payload:(string_of_int !cur)
            in
            assert fresh;
            oracle :=
              IntMap.add !cur
                { o_epoch = 1; o_payload = string_of_int !cur; o_at = !now }
                !oracle
          end
          else if op <= 7 then begin
            (* lookup mirrors the store's lazy purge on expired hits *)
            let s = Stdlib.max 1 (!cur - arg) in
            let got = Log_store.get store ~now:!now s in
            let want =
              match IntMap.find_opt s !oracle with
              | Some o when !now -. o.o_at <= life -> Some o
              | Some _ ->
                  oracle := IntMap.remove s !oracle;
                  None
              | None -> None
            in
            match (got, want) with
            | None, None -> ()
            | Some e, Some o when e.Log_store.payload = o.o_payload -> ()
            | _ -> QCheck.Test.fail_reportf "get %d diverged" s
          end
          else begin
            (* jump the clock and expire both sides *)
            now := !now +. (0.1 *. float_of_int arg);
            ignore (Log_store.expire store ~now:!now);
            expire_oracle ();
            match compare_state store ~now:!now !oracle with
            | None -> ()
            | Some msg -> QCheck.Test.fail_reportf "after expire: %s" msg
          end)
        cmds;
      true)

(* ---- Gap_tracker vs sorted-set oracle across the wrap ----------------- *)

(* Oracle in absolute positions; the tracker sees them reduced through
   [Seqno.of_int].  The base sits just under [Seqno.space], so streams
   longer than ~60 positions cross the wrap boundary. *)
type gap_oracle = { mutable o_hi : int option; mutable o_missing : IntSet.t }

let o_note o pos =
  match o.o_hi with
  | None ->
      o.o_hi <- Some pos;
      Gap_tracker.First
  | Some hi ->
      if pos > hi then begin
        let gap = List.init (pos - hi - 1) (fun i -> hi + 1 + i) in
        List.iter (fun p -> o.o_missing <- IntSet.add p o.o_missing) gap;
        o.o_hi <- Some pos;
        if gap = [] then Gap_tracker.In_order
        else Gap_tracker.Gap_opened (List.map Seqno.of_int gap)
      end
      else if IntSet.mem pos o.o_missing then begin
        o.o_missing <- IntSet.remove pos o.o_missing;
        Gap_tracker.Fills_gap
      end
      else Gap_tracker.Duplicate

let o_note_exists o pos =
  match o.o_hi with
  | None ->
      o.o_hi <- Some pos;
      o.o_missing <- IntSet.add pos o.o_missing;
      [ Seqno.of_int pos ]
  | Some hi ->
      if pos > hi then begin
        let gap = List.init (pos - hi) (fun i -> hi + 1 + i) in
        List.iter (fun p -> o.o_missing <- IntSet.add p o.o_missing) gap;
        o.o_hi <- Some pos;
        List.map Seqno.of_int gap
      end
      else []

let verdict_eq (a : Gap_tracker.verdict) (b : Gap_tracker.verdict) =
  match (a, b) with
  | Gap_tracker.First, Gap_tracker.First
  | Gap_tracker.In_order, Gap_tracker.In_order
  | Gap_tracker.Fills_gap, Gap_tracker.Fills_gap
  | Gap_tracker.Duplicate, Gap_tracker.Duplicate ->
      true
  | Gap_tracker.Gap_opened xs, Gap_tracker.Gap_opened ys ->
      List.equal Int.equal xs ys
  | _ -> false

let o_missing_list o =
  List.map Seqno.of_int (IntSet.elements o.o_missing)

let prop_gap_tracker =
  QCheck.Test.make ~count:300
    ~name:"gap_tracker = sorted-set oracle across seqno wrap"
    QCheck.(
      list_of_size
        Gen.(5 -- 100)
        (pair (int_range 0 9) (int_range 0 119)))
    (fun cmds ->
      let base = Seqno.space - 60 in
      let t = Gap_tracker.create () in
      let o = { o_hi = None; o_missing = IntSet.empty } in
      List.iter
        (fun (op, off) ->
          let pos = base + off in
          let s = Seqno.of_int pos in
          (if op <= 5 then begin
             let got = Gap_tracker.note t s in
             let want = o_note o pos in
             if not (verdict_eq got want) then
               QCheck.Test.fail_reportf "note %d verdict diverged" pos
           end
           else if op <= 7 then begin
             let got = Gap_tracker.note_exists t s in
             let want = o_note_exists o pos in
             if not (List.equal Int.equal got want) then
               QCheck.Test.fail_reportf "note_exists %d diverged" pos
           end
           else if op = 8 then begin
             Gap_tracker.abandon t s;
             o.o_missing <- IntSet.remove pos o.o_missing
           end
           else begin
             let got = Gap_tracker.forget_below t s in
             let dropped = IntSet.filter (fun p -> p < pos) o.o_missing in
             o.o_missing <- IntSet.diff o.o_missing dropped;
             let want = List.map Seqno.of_int (IntSet.elements dropped) in
             if not (List.equal Int.equal got want) then
               QCheck.Test.fail_reportf "forget_below %d diverged" pos
           end);
          if not (List.equal Int.equal (Gap_tracker.missing t) (o_missing_list o))
          then QCheck.Test.fail_reportf "missing set diverged after %d" pos;
          if Gap_tracker.missing_count t <> IntSet.cardinal o.o_missing then
            QCheck.Test.fail_reportf "missing_count diverged";
          if Gap_tracker.highest t <> Option.map Seqno.of_int o.o_hi then
            QCheck.Test.fail_reportf "highest diverged")
        cmds;
      true)

(* ---- Archive vs Map oracle across rotation, compaction, crash --------- *)

(* Geometry chosen so a random stream exercises everything: ~4 records
   per 160-byte segment (frequent rotation, and with it persisted L
   records mid-stream, where a lost tail could contradict them) and a
   sparse index sampling every 2nd entry. *)
let a_seg_bytes = 160
let a_max_seq = 48
let a_reclen payload = 18 + String.length payload

let a_pay seq salt =
  Printf.sprintf "%d#%d#%s" seq salt (String.make (seq mod 23) 'x')

(* A crash fs over [Archive.in_memory]: per path, the length its last
   fsync made stable and the end of every append since.  [crash pick]
   cuts every path (segments, sidecars, manifest) to its stable length
   plus a prefix of its tail, [pick n] choosing among [n] cuts: none,
   each record boundary, and one cut inside the tail's last record.
   Truncation and removal take effect at once.  It returns the cuts
   that lost bytes, as "path kept/size", to name the crash point. *)
type image = {
  mutable stable : int;
  mutable ends : int list; (* newest first *)
}

let crash_fs () =
  let mem = Archive.in_memory () in
  let images : (string, image) Hashtbl.t = Hashtbl.create 8 in
  let image path =
    match Hashtbl.find_opt images path with
    | Some i -> i
    | None ->
        let i = { stable = 0; ends = [] } in
        Hashtbl.replace images path i;
        i
  in
  let fs =
    {
      mem with
      Archive.append =
        (fun path data ->
          mem.Archive.append path data;
          let i = image path in
          i.ends <- mem.size path :: i.ends);
      truncate =
        (fun path ~len ->
          mem.truncate path ~len;
          let i = image path in
          i.stable <- Stdlib.min i.stable len;
          i.ends <-
            (if len > i.stable then len :: List.filter (fun e -> e < len) i.ends
             else []));
      remove =
        (fun path ->
          mem.remove path;
          Hashtbl.remove images path);
      fsync =
        (fun path ->
          let i = image path in
          i.stable <- mem.size path;
          i.ends <- []);
    }
  in
  let crash pick =
    Hashtbl.fold (fun path i acc -> (path, i) :: acc) images []
    |> List.sort (fun (p, _) (q, _) -> String.compare p q)
    |> List.filter_map (fun (path, i) ->
           let size = mem.size path in
           let last = match i.ends with _ :: e :: _ -> e | _ -> i.stable in
           let cuts =
             Array.of_list
               ((i.stable :: List.rev i.ends) @ [ (last + size) / 2 ])
           in
           let cut =
             if size > i.stable then cuts.(pick (Array.length cuts)) else size
           in
           i.stable <- cut;
           i.ends <- [];
           if cut >= size then None
           else begin
             mem.truncate path ~len:cut;
             Some (Printf.sprintf "%s %d/%d" path cut size)
           end)
    |> String.concat ", "
  in
  (fs, crash)

type arec = { a_seq : int; a_pos : int; a_len : int }

(* The oracle mirrors the archive's layout decisions (rotation points,
   record offsets) but keeps its *contents* as a plain Map.  The
   persisted mark follows the archive's rule: it moves at a seal, at a
   compaction that reclaims anything, and at a close. *)
type amodel = {
  mutable a_kv : (int * string) IntMap.t;  (* live seq -> epoch, payload *)
  mutable a_gone : IntSet.t;  (* seqs reclaimed by compaction *)
  mutable a_sealed : (int * IntSet.t) list;  (* (segment id, seqs), id asc *)
  mutable a_active : arec list;  (* append order = offset order *)
  mutable a_active_id : int;
  mutable a_active_size : int;
  mutable a_contig : int;
  mutable a_persisted : int;
}

let amodel () =
  {
    a_kv = IntMap.empty;
    a_gone = IntSet.empty;
    a_sealed = [];
    a_active = [];
    a_active_id = 1;
    a_active_size = 0;
    a_contig = 0;
    a_persisted = 0;
  }

let m_advance m =
  while IntMap.mem (m.a_contig + 1) m.a_kv do
    m.a_contig <- m.a_contig + 1
  done

let m_seal m =
  if m.a_active <> [] then begin
    let seqs =
      List.fold_left (fun s r -> IntSet.add r.a_seq s) IntSet.empty m.a_active
    in
    m.a_sealed <- m.a_sealed @ [ (m.a_active_id, seqs) ];
    m.a_active_id <- m.a_active_id + 1;
    m.a_active <- [];
    m.a_active_size <- 0;
    m.a_persisted <- m.a_contig
  end

let m_append m ~seq ~epoch ~payload =
  if not (IntMap.mem seq m.a_kv) then begin
    let len = a_reclen payload in
    if m.a_active <> [] && m.a_active_size + len > a_seg_bytes then m_seal m;
    m.a_active <-
      m.a_active @ [ { a_seq = seq; a_pos = m.a_active_size; a_len = len } ];
    m.a_active_size <- m.a_active_size + len;
    m.a_kv <- IntMap.add seq (epoch, payload) m.a_kv;
    if m.a_contig + 1 = seq then m_advance m
  end

let m_compact m ~floor =
  let gone, keep =
    List.partition (fun (_, seqs) -> IntSet.max_elt seqs <= floor) m.a_sealed
  in
  if gone <> [] then m.a_persisted <- m.a_contig;
  List.iter
    (fun (_, seqs) ->
      IntSet.iter
        (fun s ->
          m.a_kv <- IntMap.remove s m.a_kv;
          m.a_gone <- IntSet.add s m.a_gone)
        seqs)
    gone;
  m.a_sealed <- keep;
  List.map fst gone

(* Cheap invariants checked after every command. *)
let a_check m arch ctx =
  if Archive.count arch <> IntMap.cardinal m.a_kv then
    QCheck.Test.fail_reportf "%s: count %d, oracle %d" ctx (Archive.count arch)
      (IntMap.cardinal m.a_kv);
  if Archive.active_size arch <> m.a_active_size then
    QCheck.Test.fail_reportf "%s: active_size %d, oracle %d" ctx
      (Archive.active_size arch) m.a_active_size;
  if Archive.low_water arch <> m.a_contig then
    QCheck.Test.fail_reportf "%s: low_water %d, oracle %d" ctx
      (Archive.low_water arch) m.a_contig;
  for s = 1 to Archive.low_water arch do
    if not (IntMap.mem s m.a_kv || IntSet.mem s m.a_gone) then
      QCheck.Test.fail_reportf
        "%s: floor %d overstates: %d neither held nor compacted" ctx
        (Archive.low_water arch) s
  done

(* What a reopened archive owes whatever the crash took, checked
   against the archive alone before the oracle is consulted: every seq
   up to the floor is found (with a valid checksum, which [find]
   checks) or was compacted, and every payload found is one appended
   at that seq. *)
let a_check_recovered arch ~appended ~gone ctx =
  let floor = Archive.low_water arch in
  for s = 1 to a_max_seq + 2 do
    match Archive.find arch s with
    | None ->
        if s <= floor && not (IntSet.mem s gone) then
          QCheck.Test.fail_reportf
            "%s: floor %d overstates: %d neither found nor compacted" ctx floor
            s
    | Some found ->
        if not (List.mem found (Hashtbl.find_all appended s)) then
          QCheck.Test.fail_reportf "%s: %d found with a payload never appended"
            ctx s
  done

(* Full sweep, run after every reopen and at the end. *)
let a_check_full m arch ctx =
  a_check m arch ctx;
  for s = 1 to a_max_seq + 2 do
    (match (Archive.find arch s, IntMap.find_opt s m.a_kv) with
    | None, None -> ()
    | Some (e, p), Some (e', p') when e = e' && String.equal p p' -> ()
    | Some _, None ->
        QCheck.Test.fail_reportf "%s: archive has %d, oracle does not" ctx s
    | None, Some _ ->
        QCheck.Test.fail_reportf "%s: oracle has %d, archive lost it" ctx s
    | Some _, Some _ ->
        QCheck.Test.fail_reportf "%s: entry %d fields diverged" ctx s);
    if Archive.mem arch s <> IntMap.mem s m.a_kv then
      QCheck.Test.fail_reportf "%s: mem %d diverged" ctx s
  done

(* QCHECK_LONG=1 runs it [long_factor] times longer (a CI step). *)
let prop_archive =
  QCheck.Test.make ~count:150 ~long_factor:20
    ~name:"archive: segments + manifest = Map across rotate/compact/crash"
    QCheck.(
      list_of_size
        Gen.(10 -- 120)
        (triple (int_range 0 9) (int_range 0 47) (int_range 0 200)))
    (fun cmds ->
      let fail_next = ref false in
      let crash_fs, crash = crash_fs () in
      (* Injected data-append failures: all-or-nothing, segment files
         only (manifest and sidecar writes stay healthy). *)
      let fs =
        {
          crash_fs with
          Archive.append =
            (fun path data ->
              if !fail_next && Filename.check_suffix path ".seg" then begin
                fail_next := false;
                raise (Archive.Fs_error "injected append failure")
              end;
              crash_fs.Archive.append path data);
        }
      in
      let reopen ctx =
        match
          Archive.open_ ~segment_bytes:a_seg_bytes ~index_stride:2 ~fs
            "model-archive"
        with
        | Ok a -> a
        | Error e -> QCheck.Test.fail_reportf "%s: open failed: %s" ctx e
      in
      let arch = ref (reopen "first open") in
      let m = amodel () in
      (* Every (epoch, payload) an append wrote, by seq. *)
      let appended = Hashtbl.create 64 in
      List.iteri
        (fun i (op, a, b) ->
          let seq = (a mod a_max_seq) + 1 in
          if op <= 3 then begin
            let epoch = b mod 3 and payload = a_pay seq b in
            if not (IntMap.mem seq m.a_kv) then
              Hashtbl.add appended seq (epoch, payload);
            Archive.append !arch ~seq ~epoch ~payload;
            m_append m ~seq ~epoch ~payload
          end
          else if op = 4 then begin
            if IntMap.mem seq m.a_kv then
              (* duplicate: dedup fires before any fs call *)
              Archive.append !arch ~seq ~epoch:0 ~payload:"dup"
            else begin
              (* fresh append with the data write failing: the rotation
                 decision precedes the write, the record itself must not
                 land, and the handle must stay usable *)
              let epoch = b mod 3 and payload = a_pay seq b in
              let len = a_reclen payload in
              if m.a_active <> [] && m.a_active_size + len > a_seg_bytes then
                m_seal m;
              fail_next := true;
              (match Archive.append !arch ~seq ~epoch ~payload with
              | () ->
                  QCheck.Test.fail_reportf
                    "append %d: injected Fs_error not raised" seq
              | exception Archive.Fs_error _ -> ());
              fail_next := false
            end
          end
          else if op = 5 then (
            match (Archive.find !arch seq, IntMap.find_opt seq m.a_kv) with
            | None, None -> ()
            | Some (e, p), Some (e', p') when e = e' && String.equal p p' -> ()
            | _ -> QCheck.Test.fail_reportf "find %d diverged" seq)
          else if op = 6 then begin
            Archive.rotate !arch;
            m_seal m
          end
          else if op = 7 then begin
            let got = Archive.compact !arch ~floor:a in
            let want = m_compact m ~floor:a in
            if not (List.equal Int.equal got want) then
              QCheck.Test.fail_reportf "compact %d: reclaimed ids diverged" a
          end
          else if op = 8 then begin
            (* clean close + reopen: nothing may be lost *)
            Archive.close !arch;
            m.a_persisted <- m.a_contig;
            arch := reopen "clean reopen";
            a_check_recovered !arch ~appended ~gone:m.a_gone "clean reopen";
            a_check_full m !arch "clean reopen"
          end
          else begin
            (* crash: abandon the handle without closing; every file
               keeps what was fsynced plus a prefix of the rest *)
            let rng = Random.State.make [| a; b |] in
            let cuts = crash (Random.State.int rng) in
            let ctx = Printf.sprintf "crash at command %d [%s]" i cuts in
            let kept = fs.Archive.size (Archive.active_path !arch) in
            let keep, lost =
              List.partition (fun r -> r.a_pos + r.a_len <= kept) m.a_active
            in
            List.iter (fun r -> m.a_kv <- IntMap.remove r.a_seq m.a_kv) lost;
            m.a_active <- keep;
            m.a_active_size <-
              (match List.rev keep with [] -> 0 | r :: _ -> r.a_pos + r.a_len);
            m.a_contig <- m.a_persisted;
            m_advance m;
            arch := reopen ctx;
            a_check_recovered !arch ~appended ~gone:m.a_gone ctx;
            a_check_full m !arch ctx
          end;
          a_check m !arch "step")
        cmds;
      Archive.close !arch;
      a_check_full m !arch "final";
      true)

(* Deterministic companion: a sealed segment plus a six-record tail, cut
   at *every* record boundary and one byte inside each record.  The
   reopened archive must hold exactly the records wholly below the cut,
   and a torn sequence number must be re-appendable (it is genuinely
   gone, not shadow-remembered). *)
let archive_torn_tail_every_boundary () =
  let checki = Alcotest.check Alcotest.int in
  let build () =
    let fs = Archive.in_memory () in
    let a =
      Result.get_ok
        (Archive.open_ ~segment_bytes:100_000 ~fs "torn")
    in
    for s = 1 to 6 do
      Archive.append a ~seq:s ~epoch:1 ~payload:(a_pay s 0)
    done;
    Archive.rotate a;
    let recs = ref [] in
    for s = 7 to 12 do
      let start = Archive.active_size a in
      Archive.append a ~seq:s ~epoch:1 ~payload:(a_pay s 0);
      recs := (s, start, Archive.active_size a) :: !recs
    done;
    (fs, a, List.rev !recs)
  in
  let _, _, recs = build () in
  let cuts =
    List.concat_map
      (fun (s, start, stop) ->
        [ (s, start); (s, start + 1); (s, stop - 1); (s + 1, stop) ])
      recs
  in
  List.iter
    (fun (first_lost, cut) ->
      let label = Printf.sprintf "cut at %d" cut in
      let fs, a, _ = build () in
      fs.Archive.truncate (Archive.active_path a) ~len:cut;
      let a =
        Result.get_ok
          (Archive.open_ ~segment_bytes:100_000 ~fs "torn")
      in
      let survivors = first_lost - 1 in
      checki (label ^ ": count") survivors (Archive.count a);
      checki (label ^ ": low_water") survivors (Archive.low_water a);
      for s = 1 to 12 do
        if s <= survivors then (
          match Archive.find a s with
          | Some (1, p) when String.equal p (a_pay s 0) -> ()
          | _ -> Alcotest.failf "%s: record %d lost or mangled" label s)
        else if Archive.mem a s then
          Alcotest.failf "%s: torn record %d still visible" label s
      done;
      if first_lost <= 12 then begin
        (* the torn seq is writable again, at the recovered tail *)
        Archive.append a ~seq:first_lost ~epoch:2 ~payload:"rewrite";
        match Archive.find a first_lost with
        | Some (2, "rewrite") -> ()
        | _ -> Alcotest.failf "%s: re-append after tear failed" label
      end)
    cuts

(* A compaction persists the mark over stable records only, and the
   mark bridges the range it reclaimed: after a crash that keeps no
   unsynced byte anywhere, the floor still covers the compacted segment
   and the active records under it. *)
let archive_compaction_mark () =
  let fs, crash = crash_fs () in
  let open_ () =
    Result.get_ok (Archive.open_ ~segment_bytes:100_000 ~fs "cm")
  in
  let a = open_ () in
  for s = 1 to 9 do
    Archive.append a ~seq:s ~epoch:1 ~payload:(a_pay s 0);
    if s = 6 then Archive.rotate a
  done;
  Alcotest.(check (list int)) "reclaimed" [ 1 ] (Archive.compact a ~floor:6);
  let cuts = crash (fun _ -> 0) in
  let a = open_ () in
  Alcotest.(check int) "floor" 9 (Archive.low_water a);
  for s = 7 to 9 do
    match Archive.find a s with
    | Some (1, p) when String.equal p (a_pay s 0) -> ()
    | _ -> Alcotest.failf "record %d under the mark lost [%s]" s cuts
  done;
  Alcotest.(check string) "nothing left unsynced" "" cuts

let () =
  Alcotest.run "model"
    [
      ( "log_store",
        [ qtest prop_keep_all; qtest prop_keep_last; qtest prop_keep_for ] );
      ("gap_tracker", [ qtest prop_gap_tracker ]);
      ( "archive",
        [
          qtest prop_archive;
          Alcotest.test_case "torn tail at every boundary" `Quick
            archive_torn_tail_every_boundary;
          Alcotest.test_case "compaction's mark covers stable records" `Quick
            archive_compaction_mark;
        ] );
    ]
