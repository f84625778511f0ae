type error = Truncated | Bad_tag of int | Bad_value of string | Trailing of int

let pp_error fmt = function
  | Truncated -> Format.fprintf fmt "truncated input"
  | Bad_tag t -> Format.fprintf fmt "unknown message tag %d" t
  | Bad_value s -> Format.fprintf fmt "bad value: %s" s
  | Trailing n -> Format.fprintf fmt "%d trailing bytes" n

let error_to_string e = Format.asprintf "%a" pp_error e

(* Offset-based writer over a reusable [Bytes] scratch buffer.  Encoding
   a message into a kept writer allocates nothing once the scratch has
   grown to the working-set packet size. *)
module Writer = struct
  type t = { mutable buf : Bytes.t; mutable pos : int }

  let create ?(size = 256) () = { buf = Bytes.create (max 8 size); pos = 0 }
  let wrap buf = { buf; pos = 0 }
  let length t = t.pos
  let buffer t = t.buf
  let contents t = Bytes.sub_string t.buf 0 t.pos

  (* Point a kept writer at [buf.[pos ..)] without allocating. *)
  let retarget t buf pos =
    t.buf <- buf;
    t.pos <- pos

  let ensure t n =
    let need = t.pos + n in
    if need > Bytes.length t.buf then begin
      let cap = ref (max 8 (2 * Bytes.length t.buf)) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let grown = Bytes.create !cap in
      Bytes.blit t.buf 0 grown 0 t.pos;
      t.buf <- grown
    end

  let u8 t v =
    ensure t 1;
    Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (v land 0xff));
    t.pos <- t.pos + 1

  let u16 t v =
    ensure t 2;
    Bytes.set_uint16_be t.buf t.pos (v land 0xffff);
    t.pos <- t.pos + 2

  let u32 t v =
    ensure t 4;
    Bytes.set_int32_be t.buf t.pos (Int32.of_int v);
    t.pos <- t.pos + 4

  let f64 t v =
    ensure t 8;
    Bytes.set_int64_be t.buf t.pos (Int64.bits_of_float v);
    t.pos <- t.pos + 8

  let raw t s =
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.pos n;
    t.pos <- t.pos + n

  let bytes t s =
    u32 t (String.length s);
    raw t s

  let payload t (p : Payload.t) =
    let n = Payload.length p in
    u32 t n;
    ensure t n;
    Bytes.blit_string p.Payload.base p.Payload.off t.buf t.pos n;
    t.pos <- t.pos + n
end

(* Failures travel as an exception so the hot path is straight-line
   code — no closure per [Result.bind] and no [Ok] box per field read.
   The in-place cores raise it to their callers; the result-returning
   wrappers catch it at the message boundary. *)
exception Malformed of error

let fail e = raise_notrace (Malformed e)

(* Positional parser over a [pos, limit) window of a string; payloads
   come back as views over that window, never as copies.  Every field
   is mutable so the decode core can re-aim a kept reader at each
   datagram. *)
module Reader = struct
  type t = { mutable src : string; mutable pos : int; mutable limit : int }

  let create ?(pos = 0) ?len src =
    let slen = String.length src in
    let limit = match len with None -> slen | Some n -> pos + n in
    if pos < 0 || limit < pos || limit > slen then
      invalid_arg "Codec.Reader.create"
    else { src; pos; limit }

  let remaining t = t.limit - t.pos
  let need t n = if t.limit - t.pos < n then fail Truncated

  let u8_exn t =
    need t 1;
    let v = String.get_uint8 t.src t.pos in
    t.pos <- t.pos + 1;
    v

  let u16_exn t =
    need t 2;
    let v = String.get_uint16_be t.src t.pos in
    t.pos <- t.pos + 2;
    v

  let u32_exn t =
    need t 4;
    let v = Int32.to_int (String.get_int32_be t.src t.pos) land 0xffffffff in
    t.pos <- t.pos + 4;
    v

  let f64_exn t =
    need t 8;
    let v = Int64.float_of_bits (String.get_int64_be t.src t.pos) in
    t.pos <- t.pos + 8;
    v

  let payload_exn t =
    let n = u32_exn t in
    need t n;
    let v = Payload.view t.src ~off:t.pos ~len:n in
    t.pos <- t.pos + n;
    v

  (* Result-returning wrappers — the public face used by application
     codecs, where per-field boxing doesn't matter. *)
  let wrap f t = match f t with v -> Ok v | exception Malformed e -> Error e
  let u8 t = wrap u8_exn t
  let u16 t = wrap u16_exn t
  let u32 t = wrap u32_exn t
  let f64 t = wrap f64_exn t
  let payload t = wrap payload_exn t
  let bytes t = wrap (fun t -> Payload.to_owned (payload_exn t)) t

  (* [n] u32s into a fresh array; caller has already bounds-checked
     [remaining t >= 4 * n], so the per-element reads cannot fail. *)
  let u32_array t n =
    let src = t.src and base = t.pos in
    let a =
      Array.init n (fun i ->
          Int32.to_int (String.get_int32_be src (base + (4 * i)))
          land 0xffffffff)
    in
    t.pos <- base + (4 * n);
    a
end

(* Message tags; order is part of the wire format, append only. *)
let tag_of = function
  | Message.Data _ -> 0
  | Heartbeat _ -> 1
  | Nack _ -> 2
  | Retrans _ -> 3
  | Log_deposit _ -> 4
  | Log_ack _ -> 5
  | Replica_update _ -> 6
  | Replica_ack _ -> 7
  | Acker_select _ -> 8
  | Acker_reply _ -> 9
  | Stat_ack _ -> 10
  | Probe _ -> 11
  | Probe_reply _ -> 12
  | Discovery_query _ -> 13
  | Discovery_reply _ -> 14
  | Who_is_primary -> 15
  | Primary_is _ -> 16
  | Replica_query -> 17
  | Replica_status _ -> 18
  | Promote _ -> 19
  | Ring_forward _ -> 20
  | Ring_ack _ -> 21
  | Ring_set _ -> 22
  | Quorum_ack _ -> 23

let tags = 24

let nack_max = 65536
let promote_max = 1024
let slot_size = 2048

(* A NACK encodes as a tag byte, a 4-byte count and 4 bytes per seq. *)
let nack_seqs_max = (slot_size - 5) / 4

let nack_batches seqs =
  let rec cut n batch acc = function
    | [] -> List.rev (if n = 0 then acc else List.rev batch :: acc)
    | s :: rest ->
        if n = nack_seqs_max then cut 1 [ s ] (List.rev batch :: acc) rest
        else cut (n + 1) (s :: batch) acc rest
  in
  match seqs with
  | [] -> []
  | _ when List.compare_length_with seqs nack_seqs_max <= 0 -> [ seqs ]
  | _ -> cut 0 [] [] seqs

(* Same limits the decoder enforces, checked before a single byte is
   written so a rejected message never dirties the caller's writer. *)
let[@lint.hot] validate (m : Message.t) =
  match m with
  | Nack { seqs } when List.compare_length_with seqs nack_max > 0 ->
      fail (Bad_value "nack list too long")
  | Promote { replicas } when List.compare_length_with replicas promote_max > 0
    ->
      fail (Bad_value "replica list too long")
  | _ -> ()

(* One reservation, then tight unchecked-growth writes: the worst-case
   burst NACK (65536 seqs) costs a single [ensure]. *)
let[@lint.hot] seq_list w seqs =
  let n = List.length seqs in
  Writer.u32 w n;
  Writer.ensure w (4 * n);
  (List.iter (Writer.u32 w) seqs
  [@lint.alloc "one closure per seq-list encode; NACK bursts, not data"])

let[@lint.hot] write_body w (m : Message.t) =
  Writer.u8 w (tag_of m);
  match m with
  | Data { seq; epoch; payload } ->
      Writer.u32 w seq;
      Writer.u32 w epoch;
      Writer.payload w payload
  | Heartbeat { seq; hb_index; epoch; payload } -> (
      Writer.u32 w seq;
      Writer.u32 w hb_index;
      Writer.u32 w epoch;
      match payload with
      | None -> Writer.u8 w 0
      | Some p ->
          Writer.u8 w 1;
          Writer.payload w p)
  | Nack { seqs } -> seq_list w seqs
  | Retrans { seq; epoch; payload } ->
      Writer.u32 w seq;
      Writer.u32 w epoch;
      Writer.payload w payload
  | Log_deposit { seq; epoch; payload } ->
      Writer.u32 w seq;
      Writer.u32 w epoch;
      Writer.payload w payload
  | Log_ack { primary_seq; replica_seq } ->
      Writer.u32 w primary_seq;
      Writer.u32 w replica_seq
  | Replica_update { seq; epoch; payload } ->
      Writer.u32 w seq;
      Writer.u32 w epoch;
      Writer.payload w payload
  | Replica_ack { seq } -> Writer.u32 w seq
  | Acker_select { epoch; p_ack } ->
      Writer.u32 w epoch;
      Writer.f64 w p_ack
  | Acker_reply { epoch; logger } ->
      Writer.u32 w epoch;
      Writer.u32 w logger
  | Stat_ack { epoch; seq; logger } ->
      Writer.u32 w epoch;
      Writer.u32 w seq;
      Writer.u32 w logger
  | Probe { round; p } ->
      Writer.u32 w round;
      Writer.f64 w p
  | Probe_reply { round; logger } ->
      Writer.u32 w round;
      Writer.u32 w logger
  | Discovery_query { nonce } -> Writer.u32 w nonce
  | Discovery_reply { nonce; logger } ->
      Writer.u32 w nonce;
      Writer.u32 w logger
  | Who_is_primary -> ()
  | Primary_is { logger } -> Writer.u32 w logger
  | Replica_query -> ()
  | Replica_status { seq } -> Writer.u32 w seq
  | Promote { replicas } -> seq_list w replicas
  | Ring_forward { seq; epoch; payload } ->
      Writer.u32 w seq;
      Writer.u32 w epoch;
      Writer.payload w payload
  | Ring_ack { seq } -> Writer.u32 w seq
  | Ring_set { succ; head } ->
      (match succ with
      | None -> Writer.u8 w 0
      | Some s ->
          Writer.u8 w 1;
          Writer.u32 w s);
      Writer.u32 w head
  | Quorum_ack { seq } -> Writer.u32 w seq

(* The encode core: serialize straight into [buf.[pos .. limit)]
   through the caller's kept writer (the UDP runtime fills its
   sendmmsg slots this way) and return the size.  [body_size] is exact,
   so the slot bound is checked once up front and the writer can never
   grow — on [Malformed] the buffer is untouched. *)
let[@lint.hot] encode_at_exn w buf ~pos ~limit (m : Message.t) =
  validate m;
  let size = Message.body_size m in
  if pos < 0 || limit > Bytes.length buf || size > limit - pos then
    fail (Bad_value "message exceeds slot");
  Writer.retarget w buf pos;
  write_body w m;
  assert (Writer.length w - pos = size && Writer.buffer w == buf);
  size

let encode (m : Message.t) =
  match validate m with
  | () ->
      (* [body_size] is exact (round-trip tests pin it), so the buffer
         never grows and can be handed out without a trailing copy. *)
      let buf = Bytes.create (Message.body_size m) in
      let w = Writer.wrap buf in
      write_body w m;
      Ok
        (if Writer.length w = Bytes.length buf && Writer.buffer w == buf then
           Bytes.unsafe_to_string buf
         else Writer.contents w)
  | exception Malformed e -> Error e

let encode_at buf ~pos ~limit (m : Message.t) =
  match encode_at_exn (Writer.wrap buf) buf ~pos ~limit m with
  | size -> Ok size
  | exception Malformed e -> Error e

let decode_seq_array r ~max ~what =
  let n = Reader.u32_exn r in
  if n > max then fail (Bad_value (what ^ " list too long"));
  if Reader.remaining r < 4 * n then fail Truncated;
  Reader.u32_array r n

let decode_body tag r : Message.t =
  let open Reader in
  match tag with
  | 0 ->
      let seq = u32_exn r in
      let epoch = u32_exn r in
      Message.Data { seq; epoch; payload = payload_exn r }
  | 1 ->
      let seq = u32_exn r in
      let hb_index = u32_exn r in
      let epoch = u32_exn r in
      let payload =
        match u8_exn r with
        | 0 -> None
        | 1 -> Some (payload_exn r)
        | n -> fail (Bad_value (Printf.sprintf "heartbeat payload flag %d" n))
      in
      Message.Heartbeat { seq; hb_index; epoch; payload }
  | 2 ->
      Message.Nack
        { seqs = Array.to_list (decode_seq_array r ~max:nack_max ~what:"nack") }
  | 3 ->
      let seq = u32_exn r in
      let epoch = u32_exn r in
      Message.Retrans { seq; epoch; payload = payload_exn r }
  | 4 ->
      let seq = u32_exn r in
      let epoch = u32_exn r in
      Message.Log_deposit { seq; epoch; payload = payload_exn r }
  | 5 ->
      let primary_seq = u32_exn r in
      let replica_seq = u32_exn r in
      Message.Log_ack { primary_seq; replica_seq }
  | 6 ->
      let seq = u32_exn r in
      let epoch = u32_exn r in
      Message.Replica_update { seq; epoch; payload = payload_exn r }
  | 7 -> Message.Replica_ack { seq = u32_exn r }
  | 8 ->
      let epoch = u32_exn r in
      let p_ack = f64_exn r in
      if p_ack < 0. || p_ack > 1. || Float.is_nan p_ack then
        fail (Bad_value "p_ack out of [0,1]");
      Message.Acker_select { epoch; p_ack }
  | 9 ->
      let epoch = u32_exn r in
      Message.Acker_reply { epoch; logger = u32_exn r }
  | 10 ->
      let epoch = u32_exn r in
      let seq = u32_exn r in
      Message.Stat_ack { epoch; seq; logger = u32_exn r }
  | 11 ->
      let round = u32_exn r in
      let p = f64_exn r in
      if p < 0. || p > 1. || Float.is_nan p then
        fail (Bad_value "probe p out of [0,1]");
      Message.Probe { round; p }
  | 12 ->
      let round = u32_exn r in
      Message.Probe_reply { round; logger = u32_exn r }
  | 13 -> Message.Discovery_query { nonce = u32_exn r }
  | 14 ->
      let nonce = u32_exn r in
      Message.Discovery_reply { nonce; logger = u32_exn r }
  | 15 -> Message.Who_is_primary
  | 16 -> Message.Primary_is { logger = u32_exn r }
  | 17 -> Message.Replica_query
  | 18 -> Message.Replica_status { seq = u32_exn r }
  | 19 ->
      Message.Promote
        {
          replicas =
            Array.to_list (decode_seq_array r ~max:promote_max ~what:"replica");
        }
  | 20 ->
      let seq = u32_exn r in
      let epoch = u32_exn r in
      Message.Ring_forward { seq; epoch; payload = payload_exn r }
  | 21 -> Message.Ring_ack { seq = u32_exn r }
  | 22 ->
      let succ =
        match u8_exn r with
        | 0 -> None
        | 1 -> Some (u32_exn r)
        | n -> fail (Bad_value (Printf.sprintf "ring_set succ flag %d" n))
      in
      Message.Ring_set { succ; head = u32_exn r }
  | 23 -> Message.Quorum_ack { seq = u32_exn r }
  | t -> fail (Bad_tag t)

(* The parser core: re-aim the caller's kept reader at
   [s.[pos .. pos+len)] and parse exactly one message from it.  The
   message (and its payload view) is the only allocation. *)
let[@lint.hot] decode_exn r s ~pos ~len =
  if pos < 0 || len < 0 || len > String.length s - pos then fail Truncated;
  r.Reader.src <- s;
  r.Reader.pos <- pos;
  r.Reader.limit <- pos + len;
  let msg = decode_body (Reader.u8_exn r) r in
  (match Reader.remaining r with
  | 0 -> ()
  | n ->
      (fail (Trailing n)
      [@lint.alloc "malformed datagram: error construction on the drop path"]));
  msg

let[@lint.hot] decode_bytes_exn r b ~pos ~len =
  (* The string view is an unsafe cast: sound because decode only reads,
     but any payload views escape with the buffer's lifetime — owners
     must [Payload.to_owned] before the buffer is refilled. *)
  decode_exn r (Bytes.unsafe_to_string b) ~pos ~len

let decode ?(pos = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  match decode_exn (Reader.create s) s ~pos ~len with
  | msg -> Ok msg
  | exception Malformed e -> Error e

let decode_bytes ?pos ?len b = decode ?pos ?len (Bytes.unsafe_to_string b)

let roundtrip_size_matches m =
  match encode m with
  | Error _ -> false
  | Ok s -> String.length s + Message.header_overhead = Message.wire_size m
