(* Spans recorded from the benchmark's own code around each call into a
   layer: the runtimes' run loops, the machines' Handlers callbacks, and
   the Archive.fs file operations.  Nothing inside lib/ is instrumented;
   the benchmark builds every deployment from public constructors so it
   can wrap those two injected records.

   One process measures one workload at a time, single-threaded, so the
   tracer is module state.  Open spans live on a small stack; a finished
   span adds its duration to its name's total, its duration minus its
   children's to the name's self time, and lands in a preallocated ring
   that [dump] writes out as JSONL (name, start, end, parent). *)

let max_names = 32
let names = Array.make max_names ""
let n_names = ref 0

let register name =
  let id = !n_names in
  assert (id < max_names);
  names.(id) <- name;
  incr n_names;
  id

let count = Array.make max_names 0
let total = Array.make max_names 0.
let self = Array.make max_names 0.
let bytes = Array.make max_names 0

(* Time covered by outermost spans: the rest of a measured phase is the
   harness's own code. *)
let top_level = ref 0.

(* Spans are recorded only while [active]: wrappers installed on a
   traced deployment stay cheap pass-throughs during set-up and drain. *)
let active = ref false
let origin = ref 0.

let max_depth = 16
let depth = ref 0
let st_id = Array.make max_depth 0
let st_seq = Array.make max_depth 0
let st_start = Array.make max_depth 0.
let st_child = Array.make max_depth 0.

let ring_cap = 1 lsl 16
let r_name = Array.make ring_cap 0
let r_seq = Array.make ring_cap 0
let r_parent = Array.make ring_cap 0
let r_start = Array.make ring_cap 0.
let r_end = Array.make ring_cap 0.
let finished = ref 0
let started = ref 0

let enter id =
  let d = !depth in
  st_id.(d) <- id;
  st_seq.(d) <- !started;
  incr started;
  st_child.(d) <- 0.;
  depth := d + 1;
  st_start.(d) <- Kit.now ()

let leave () =
  let t = Kit.now () in
  let d = !depth - 1 in
  depth := d;
  let id = st_id.(d) in
  let dur = t -. st_start.(d) in
  count.(id) <- count.(id) + 1;
  total.(id) <- total.(id) +. dur;
  self.(id) <- self.(id) +. (dur -. st_child.(d));
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) +. dur
  else top_level := !top_level +. dur;
  let slot = !finished land (ring_cap - 1) in
  r_name.(slot) <- id;
  r_seq.(slot) <- st_seq.(d);
  r_parent.(slot) <- (if d > 0 then st_seq.(d - 1) else -1);
  r_start.(slot) <- st_start.(d);
  r_end.(slot) <- t;
  incr finished

let span id f =
  if not !active then f ()
  else begin
    enter id;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

let add_bytes id n = if !active then bytes.(id) <- bytes.(id) + n

let reset () =
  Array.fill count 0 max_names 0;
  Array.fill total 0 max_names 0.;
  Array.fill self 0 max_names 0.;
  Array.fill bytes 0 max_names 0;
  top_level := 0.;
  depth := 0;
  finished := 0;
  started := 0;
  origin := Kit.now ()

let start () =
  assert (!depth = 0);
  active := true

let stop () =
  assert (!depth = 0);
  active := false

(* The ring's spans in finish order; ids number spans in start order, and
   times are seconds since the last [reset]. *)
let dump path =
  let oc = open_out path in
  let n = Stdlib.min !finished ring_cap in
  let first = !finished - n in
  for k = first to !finished - 1 do
    let s = k land (ring_cap - 1) in
    Printf.fprintf oc
      "{\"name\": \"%s\", \"id\": %d, \"parent\": %s, \"start\": %.9f, \
       \"end\": %.9f}\n"
      names.(r_name.(s)) r_seq.(s)
      (if r_parent.(s) < 0 then "null" else string_of_int r_parent.(s))
      (r_start.(s) -. !origin) (r_end.(s) -. !origin)
  done;
  close_out oc

(* Seconds per enter/leave pair, for the tracing-overhead estimate;
   measured once by [calibrate], before any workload runs, because it
   overwrites the ring and the aggregates ([reset] clears them). *)
let per_span = ref 0.

let calibrate () =
  let id = register "harness.calibrate" in
  let n = 200_000 in
  let t0 = Kit.now () in
  for _ = 1 to n do
    enter id;
    leave ()
  done;
  per_span := (Kit.now () -. t0) /. float_of_int n

(* --- layer wrappers ---------------------------------------------------- *)

module Handlers = Lbrm_run.Handlers

let sp_sim_run = register "sim.run"
let sp_udp_run = register "udp.run"
let sp_udp_perform = register "udp.perform"
let sp_source = register "source.handle"
let sp_logger = register "logger.handle"
let sp_receiver = register "receiver.handle"
let sp_callback = register "harness.callback"

(* Time a machine's entry points under [id]; the application callbacks
   (deliveries, notices) are the harness's own code. *)
let wrap_handlers id ?on_message (h : Handlers.t) : Handlers.t =
  {
    on_message =
      (fun ~now ~src msg ->
        (match on_message with Some f when !active -> f msg | _ -> ());
        span id (fun () -> h.on_message ~now ~src msg));
    on_timer = (fun ~now key -> span id (fun () -> h.on_timer ~now key));
    on_deliver =
      Option.map
        (fun f ~now ~seq ~payload ~recovered ->
          span sp_callback (fun () -> f ~now ~seq ~payload ~recovered))
        h.on_deliver;
    on_notice =
      Option.map
        (fun f ~now notice -> span sp_callback (fun () -> f ~now notice))
        h.on_notice;
  }

let sp_append = register "archive.append"
let sp_fsync = register "archive.fsync"
let sp_fs_other = register "archive.other"

let wrap_fs (fs : Lbrm.Archive.fs) : Lbrm.Archive.fs =
  {
    exists = (fun p -> span sp_fs_other (fun () -> fs.exists p));
    size = (fun p -> span sp_fs_other (fun () -> fs.size p));
    read_at =
      (fun p ~pos ~len -> span sp_fs_other (fun () -> fs.read_at p ~pos ~len));
    append =
      (fun p data ->
        add_bytes sp_append (String.length data);
        span sp_append (fun () -> fs.append p data));
    truncate = (fun p ~len -> span sp_fs_other (fun () -> fs.truncate p ~len));
    remove = (fun p -> span sp_fs_other (fun () -> fs.remove p));
    fsync = (fun p -> span sp_fsync (fun () -> fs.fsync p));
  }
