(* Loopback throughput benchmarks for the production UDP transport.

   Tracks the transport's own perf trajectory in BENCH_udp.json (gated
   by check_trend.exe in CI, like BENCH_sim.json):

   - udp_unbatched:   the pre-optimization per-packet path — one fresh
                      encode, one fresh sockaddr, one sendto and one
                      recvfrom syscall per datagram
   - udp_batched:     recvmmsg/sendmmsg over the fixed slots of one
                      region, encoded and decoded in place by the codec's
                      cores through a kept writer and reader, as the
                      runtime does; the [speedup_vs_unbatched] extra is
                      the acceptance ratio
   - encode_fresh /   per-datagram serialization cost: a fresh string
     encode_pooled    per message vs Codec.encode_at_exn into a fixed
                      slot (0 words/op)
   - decode_fresh /   per-datagram parse cost: copy into a fresh buffer
     decode_pooled    then decode vs Codec.decode_bytes_exn in place from
                      a fixed slot (only the message: 8 words/op)

   Full run:   dune exec bench/udp_bench.exe      (writes BENCH_udp.json)
   Smoke run:  dune exec bench/udp_bench.exe -- --smoke

   Sandboxes without loopback sockets make this exit 0 after a skip
   message — socket availability is an environment fact, not a
   regression. *)

module Codec = Lbrm_wire.Codec
module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Sockmsg = Lbrm_run.Sockmsg

let suite = Bench_common.suite "lbrm-udp-transport"
let slot = 2048

let msg =
  Message.Data { seq = 42; epoch = 1; payload = Payload.of_string (String.make 128 'u') }

let wire_bytes =
  match Codec.encode msg with Ok s -> String.length s | Error _ -> 0

(* --- loopback plumbing ------------------------------------------------- *)

let make_socket () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.set_nonblock s;
  (* Keep a full 64-datagram burst well inside the kernel queue. *)
  (try Unix.setsockopt_int s Unix.SO_RCVBUF (1 lsl 20)
   with Unix.Unix_error _ -> ());
  s

let port_of s =
  match Unix.getsockname s with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> assert false

let sockets_available () =
  match make_socket () with
  | s ->
      Unix.close s;
      true
  | exception Unix.Unix_error _ -> false

(* --- send/recv pumps --------------------------------------------------- *)

(* Datagrams the kernel dropped anyway (loopback under extreme pressure)
   are abandoned after a quiet select so a pump can never hang; they are
   reported in the [lost] extra and should read 0. *)
let drain_wait rx = match Unix.select [ rx ] [] [] 0.25 with r, _, _ -> r <> []

let pump_batched ~use_gso ~packets () =
  let tx = make_socket () and rx = make_socket () in
  let dst_port = port_of rx in
  let batch = Sockmsg.batch_max in
  let region = Bytes.create (2 * batch * slot) in
  let tx_offs = Array.init batch (fun i -> i * slot) in
  let rx_offs = Array.init batch (fun i -> (batch + i) * slot) in
  let tx_lens = Array.make batch 0 and tx_ports = Array.make batch dst_port in
  let rx_lens = Array.make batch 0 and rx_ports = Array.make batch 0 in
  let ip =
    match Sockmsg.ipv4_of_string "127.0.0.1" with
    | Some ip -> ip
    | None -> assert false
  in
  let sockaddr p = Unix.ADDR_INET (Unix.inet_addr_loopback, p) in
  let use_mmsg = Sockmsg.mmsg_available in
  let gso0, mmsg0, _ = Sockmsg.tx_tiers () in
  let w = Codec.Writer.create () and r = Codec.Reader.create "" in
  let decoded = ref 0 and lost = ref 0 in
  for _ = 1 to packets / batch do
    for i = 0 to batch - 1 do
      match
        Codec.encode_at_exn w region ~pos:tx_offs.(i)
          ~limit:(tx_offs.(i) + slot) msg
      with
      | size -> tx_lens.(i) <- size
      | exception Codec.Malformed _ -> assert false
    done;
    Sockmsg.send_batch ~use_mmsg ~use_gso tx region ~offs:tx_offs ~lens:tx_lens
      ~ports:tx_ports ~count:batch ~ip ~sockaddr;
    let got = ref 0 in
    while !got < batch do
      let n =
        Sockmsg.recv_batch ~use_mmsg rx region ~offs:rx_offs ~slot
          ~count:(batch - !got) ~lens:rx_lens ~ports:rx_ports
      in
      if n = 0 then begin
        if not (drain_wait rx) then begin
          lost := !lost + (batch - !got);
          got := batch
        end
      end
      else begin
        for i = 0 to n - 1 do
          match
            Codec.decode_bytes_exn r region ~pos:rx_offs.(i) ~len:rx_lens.(i)
          with
          | _ -> incr decoded
          | exception Codec.Malformed _ -> ()
        done;
        got := !got + n
      end
    done
  done;
  Unix.close tx;
  Unix.close rx;
  let gso1, mmsg1, _ = Sockmsg.tx_tiers () in
  ( !decoded,
    [
      ("lost", float_of_int !lost);
      ("batch", float_of_int batch);
      ("mmsg", if use_mmsg then 1. else 0.);
      ("gso_datagrams", float_of_int (gso1 - gso0));
      ("mmsg_datagrams", float_of_int (mmsg1 - mmsg0));
      ("wire_bytes", float_of_int wire_bytes);
    ] )

(* The per-packet baseline replicates the seed runtime's event loop cost
   model, datagram by datagram: encode into a reused writer, build a
   fresh sockaddr, one sendto; then a select(2) wakeup, one recvfrom
   into the reused receive buffer, a second recvfrom that hits EAGAIN
   (the seed's drain-until-EAGAIN probe), and an in-place decode.  This
   is exactly what the pre-batching transport paid per datagram under
   paced protocol traffic — no strawman allocations were added. *)
let pump_unbatched ~packets () =
  let tx = make_socket () and rx = make_socket () in
  let dst_port = port_of rx in
  let w = Codec.Writer.create () and tbuf = Bytes.create slot in
  let rbuf = Bytes.create (2 * slot) in
  let offs = [| 0; slot |] in
  let lens = Array.make 2 0 and ports = Array.make 2 0 in
  let decoded = ref 0 and lost = ref 0 in
  for _ = 1 to packets do
    (match Codec.encode_at_exn w tbuf ~pos:0 ~limit:slot msg with
    | len ->
        Sockmsg.send_one tx tbuf ~off:0 ~len
          (Unix.ADDR_INET (Unix.inet_addr_loopback, dst_port))
    | exception Codec.Malformed _ -> assert false);
    if drain_wait rx then begin
      let n =
        Sockmsg.recv_batch ~use_mmsg:false rx rbuf ~offs ~slot ~count:2 ~lens
          ~ports
      in
      for i = 0 to n - 1 do
        match Codec.decode_bytes ~pos:offs.(i) ~len:lens.(i) rbuf with
        | Ok _ -> incr decoded
        | Error _ -> ()
      done
    end
    else incr lost
  done;
  Unix.close tx;
  Unix.close rx;
  (!decoded, [ ("lost", float_of_int !lost) ])

(* --- serialization paths ----------------------------------------------- *)

let bench_encode_fresh ~ops () =
  let bytes = ref 0 in
  for _ = 1 to ops do
    match Codec.encode msg with
    | Ok s -> bytes := !bytes + String.length s
    | Error _ -> ()
  done;
  (ops, [ ("wire_bytes", float_of_int (!bytes / max 1 ops)) ])

(* The fixed-slot rows encode into and decode from slot 1 of a
   two-slot region, as the runtime does into its transmit stage and
   from its receive ring. *)
let bench_encode_pooled ~ops () =
  let region = Bytes.create (2 * slot) in
  let w = Codec.Writer.create () in
  for _ = 1 to ops do
    match Codec.encode_at_exn w region ~pos:slot ~limit:(2 * slot) msg with
    | _ -> ()
    | exception Codec.Malformed _ -> ()
  done;
  (ops, [])

let bench_decode_fresh ~ops () =
  let wire = match Codec.encode msg with Ok s -> s | Error _ -> assert false in
  let len = String.length wire in
  let ok = ref 0 in
  for _ = 1 to ops do
    (* Per-datagram receive buffer: allocate, fill, decode. *)
    let buf = Bytes.create slot in
    Bytes.blit_string wire 0 buf 0 len;
    match Codec.decode_bytes ~len buf with
    | Ok _ -> incr ok
    | Error _ -> ()
  done;
  assert (!ok = ops);
  (ops, [])

let bench_decode_pooled ~ops () =
  let region = Bytes.create (2 * slot) in
  let len =
    match Codec.encode_at region ~pos:slot ~limit:(2 * slot) msg with
    | Ok n -> n
    | Error _ -> assert false
  in
  let r = Codec.Reader.create "" in
  let ok = ref 0 in
  for _ = 1 to ops do
    match Codec.decode_bytes_exn r region ~pos:slot ~len with
    | _ -> incr ok
    | exception Codec.Malformed _ -> ()
  done;
  assert (!ok = ops);
  (ops, [])

(* ---------------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let json =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> if smoke then None else Some "BENCH_udp.json"
    in
    find args
  in
  if not (sockets_available ()) then begin
    print_endline
      "udp_bench: loopback sockets unavailable in this environment; skipping";
    exit 0
  end;
  let scale n = if smoke then max 64 (n / 20) else n in
  let reps = if smoke then 1 else 3 in
  let run ?(reps = reps) name f = Bench_common.run ~reps suite ~name f in
  let unb = run "udp_unbatched" (pump_unbatched ~packets:(scale 64_000)) in
  let mm =
    run "udp_mmsg" (pump_batched ~use_gso:false ~packets:(scale 128_000))
  in
  let bat =
    run "udp_batched" (pump_batched ~use_gso:true ~packets:(scale 256_000))
  in
  let ratio r = Bench_common.ops_per_sec r /. Bench_common.ops_per_sec unb in
  Bench_common.amend suite ~name:"udp_mmsg"
    [ ("speedup_vs_unbatched", ratio mm) ];
  let speedup = ratio bat in
  Bench_common.amend suite ~name:"udp_batched"
    [ ("speedup_vs_unbatched", speedup) ];
  Printf.printf "%22s= %.2fx (mmsg %.2fx)\n%!" "speedup_vs_unbatched" speedup
    (ratio mm);
  ignore (run "encode_fresh" (bench_encode_fresh ~ops:(scale 400_000)));
  ignore (run "encode_pooled" (bench_encode_pooled ~ops:(scale 400_000)));
  ignore (run "decode_fresh" (bench_decode_fresh ~ops:(scale 400_000)));
  ignore (run "decode_pooled" (bench_decode_pooled ~ops:(scale 400_000)));
  match json with
  | Some path ->
      Bench_common.emit_json suite path;
      Printf.printf "wrote %s\n%!" path
  | None -> ()
