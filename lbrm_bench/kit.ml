(* Pieces shared by the LBRM benchmark workloads: the metric record and
   its JSON line, a seeded payload generator with a cheap correctness
   check, bounded latency samples, per-receiver delivery bitsets, and
   the process-level clocks.  Every timing reads the monotonic clock the
   UDP runtime itself uses. *)

module Rng = Lbrm_util.Rng
module Sample = Lbrm_util.Stats.Sample

let now = Lbrm_run.Sockmsg.monotonic_now

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

type result = {
  e2e : metric list;  (** the contract's end-to-end metrics *)
  layers : metric list;  (** per-layer metrics (traced runs only) *)
  info : metric list;  (** extra lines printed with the end-to-end ones *)
  cost : float;
      (** CPU seconds per packet over the measured phase: a traced run's
          ratio to an untraced run's is the tracing overhead *)
  attempted : int;
  failed : int;
  errors : string list;  (** failed correctness checks, for stderr *)
}

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~workload m =
  Printf.sprintf
    "{\"workload\": \"%s\", \"metric\": \"%s\", \"value\": %s, \"unit\": \
     \"%s\", \"samples\": %d}"
    workload m.name (json_float m.value) m.unit_ m.samples

let percentile_of values p =
  let s = Sample.create () in
  List.iter (Sample.add s) values;
  Sample.percentile s p

let median_of values = percentile_of values 50.

(* Latency observations in a preallocated flat float array.  When it
   fills up, every other stored value is dropped and the sampling
   stride doubles, so it always holds an evenly spaced subsample of
   everything added — ample points for a p99 — without allocating. *)
module Lat = struct
  type t = {
    buf : float array;
    mutable n : int;
    mutable seen : int;
    mutable stride : int;
  }

  let cap = 1 lsl 16

  let create () = { buf = Array.make cap 0.; n = 0; seen = 0; stride = 1 }

  let add t v =
    if t.seen land (t.stride - 1) = 0 then begin
      if t.n = Array.length t.buf then begin
        for i = 0 to (t.n / 2) - 1 do
          t.buf.(i) <- t.buf.(2 * i)
        done;
        t.n <- t.n / 2;
        t.stride <- 2 * t.stride
      end;
      if t.seen land (t.stride - 1) = 0 then begin
        t.buf.(t.n) <- v;
        t.n <- t.n + 1
      end
    end;
    t.seen <- t.seen + 1

  let count t = t.seen

  let clear t =
    t.n <- 0;
    t.seen <- 0;
    t.stride <- 1

  let percentiles t ps =
    let s = Sample.create () in
    for i = 0 to t.n - 1 do
      Sample.add s t.buf.(i)
    done;
    List.map (Sample.percentile s) ps
end

(* A measured phase is cut into segments of about [segment_seconds].
   Other processes on a shared host only ever slow a segment down, and
   they come and go within a run, so the end-to-end rate is the upper
   quartile of the segments' rates and each latency percentile the
   lower quartile of the segments' values (Phase.e2e): the estimate
   least disturbed by them, as a fastest-of-N would be, but steadier. *)
let segment_seconds = 1.

(* [length] stretches the segments of a workload whose p99 would
   otherwise rest on fewer than ten samples beyond it. *)
let segment_count ?(length = segment_seconds) seconds =
  max 1 (int_of_float (Float.round (seconds /. length)))

type segment = { rate : float; p50 : float; p99 : float }

(* Close a segment: its rate, and the percentiles of the latencies
   gathered in [lat] since the last one ([lat] is cleared). *)
let segment ~packets ~elapsed lat =
  let p50, p99 =
    match Lat.percentiles lat [ 50.; 99. ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Lat.clear lat;
  { rate = float_of_int packets /. elapsed; p50; p99 }

(* Payload for sequence number [seq]: the seq in the first 8 bytes, then
   a window into a pad drawn from the workload seed.  The last [ring]
   payloads handed to the source are kept, so checking a delivery is one
   string comparison; older ones are regenerated. *)
module Payloads = struct
  let ring = 1 lsl 14

  type t = { pad : string; size : int; sent : string array }

  let create ~seed ~size =
    assert (size >= 8);
    let rng = Rng.create ~seed in
    {
      pad = String.init 4096 (fun _ -> Char.chr (Rng.int rng 256));
      size;
      sent = Array.make ring "";
    }

  let generate t seq =
    String.init t.size (fun j ->
        if j < 8 then Char.chr ((seq lsr (8 * j)) land 255)
        else t.pad.[((seq * 131) + j) land 4095])

  let make t seq =
    let p = generate t seq in
    t.sent.(seq land (ring - 1)) <- p;
    p

  let check t ~last_sent seq payload =
    if seq > last_sent - ring && seq <= last_sent then
      String.equal payload t.sent.(seq land (ring - 1))
    else String.equal payload (generate t seq)
end

(* Which sequence numbers one receiver has been handed, to count
   duplicates and misses exactly. *)
module Seen = struct
  type t = { mutable bits : Bytes.t; mutable count : int; mutable dups : int }

  let create () = { bits = Bytes.make 1024 '\000'; count = 0; dups = 0 }

  let note t seq =
    let byte = seq lsr 3 in
    if byte >= Bytes.length t.bits then begin
      let grown = Bytes.make (2 * (byte + 1)) '\000' in
      Bytes.blit t.bits 0 grown 0 (Bytes.length t.bits);
      t.bits <- grown
    end;
    let b = Char.code (Bytes.unsafe_get t.bits byte) in
    let mask = 1 lsl (seq land 7) in
    if b land mask <> 0 then t.dups <- t.dups + 1
    else begin
      Bytes.unsafe_set t.bits byte (Char.unsafe_chr (b lor mask));
      t.count <- t.count + 1
    end
end

(* Named integer counters, for snapshots taken around a phase. *)
module Bag = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 32
  let get t k = Option.value ~default:0 (Hashtbl.find_opt t k)
  let add t k n = Hashtbl.replace t k (get t k + n)

  (* [after - before], key by key *)
  let diff ~before ~after =
    let d = create () in
    Hashtbl.iter (fun k v -> add d k (v - get before k)) after;
    d

  let merge_into acc d = Hashtbl.iter (fun k v -> add acc k v) d
end

(* Process CPU split over a phase, from times(2). *)
type cpu = { user : float; sys : float }

let cpu () =
  let t = Unix.times () in
  { user = t.Unix.tms_utime; sys = t.Unix.tms_stime }

let cpu_since c0 =
  let c1 = cpu () in
  { user = c1.user -. c0.user; sys = c1.sys -. c0.sys }

(* Live data after a full collection: what the deployment (and the
   harness's fixed buffers) hold, free of the GC's own pacing. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Set-up time is its own metric, so work moved out of the measured
   phase into set-up still shows.  The host's speed changes for a second
   or more at a time, so a run times its first set-up and then, between
   segments, throwaway ones (Phase.segment): the median spans the whole
   run instead of the few milliseconds at its start. *)
module Setup = struct
  type t = { mutable times : float list }

  let create () = { times = [] }

  (* Collect earlier garbage first, so each sample is the set-up's own
     cost. *)
  let time t build =
    Gc.full_major ();
    let t0 = now () in
    let d = build () in
    t.times <- (now () -. t0) :: t.times;
    d

  (* The median set-up time and the number of samples. *)
  let result t = (median_of t.times, List.length t.times)
end

(* UDP ports that are free right now on loopback: bind to port 0 and
   read back what the kernel chose. *)
let free_ports n =
  let socks =
    List.init n (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map
      (fun s ->
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false)
      socks
  in
  List.iter Unix.close socks;
  Array.of_list ports

(* Wall time of a fixed computation (hash-table churn and a sort), the
   median of three.  It does not depend on the code under test, so when
   it moves together with a run's rates, the host changed speed, not the
   code. *)
let host_ref_ms () =
  let once () =
    let t0 = now () in
    let h = Hashtbl.create 1024 and x = ref 12345 in
    for i = 0 to 199_999 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      Hashtbl.replace h (!x land 0xffff) i
    done;
    let a = Array.init 100_000 (fun i -> (i * 7919) land 0xffff) in
    Array.sort compare a;
    ignore (Sys.opaque_identity (h, a));
    (now () -. t0) *. 1000.
  in
  median_of (List.init 3 (fun _ -> once ()))

let loopback_available () =
  match free_ports 1 with _ -> true | exception Unix.Unix_error _ -> false
