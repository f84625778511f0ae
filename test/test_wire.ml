(* Wire-format tests: codec round trips, size model, malformed input. *)

module Message = Lbrm_wire.Message
module Codec = Lbrm_wire.Codec
module Payload = Lbrm_wire.Payload

(* Payload views from string literals. *)
let p = Payload.of_string

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let qtest = QCheck_alcotest.to_alcotest

let msg_testable =
  Alcotest.testable Message.pp Message.equal

(* Every message in these tests is within the codec's list bounds unless
   a test is explicitly probing them. *)
let encode_exn m =
  match Codec.encode m with
  | Ok s -> s
  | Error e -> Alcotest.failf "encode error: %s" (Codec.error_to_string e)

let roundtrip m =
  match Codec.decode (encode_exn m) with
  | Ok m' -> Alcotest.check msg_testable "roundtrip" m m'
  | Error e -> Alcotest.failf "decode error: %s" (Codec.error_to_string e)

(* One representative of each constructor. *)
let samples =
  [
    Message.Data { seq = 17; epoch = 3; payload = p "hello" };
    Message.Data { seq = 0; epoch = 0; payload = Payload.empty };
    Message.Heartbeat { seq = 17; hb_index = 12; epoch = 3; payload = None };
    Message.Heartbeat { seq = 9; hb_index = 1; epoch = 0; payload = Some (p "pp") };
    Message.Nack { seqs = [] };
    Message.Nack { seqs = [ 1; 2; 99 ] };
    Message.Retrans { seq = 42; epoch = 7; payload = p "data" };
    Message.Log_deposit { seq = 5; epoch = 1; payload = p "d" };
    Message.Log_ack { primary_seq = 10; replica_seq = 8 };
    Message.Replica_update { seq = 6; epoch = 2; payload = p "r" };
    Message.Replica_ack { seq = 6 };
    Message.Acker_select { epoch = 4; p_ack = 0.25 };
    Message.Acker_reply { epoch = 4; logger = 31 };
    Message.Stat_ack { epoch = 4; seq = 12; logger = 31 };
    Message.Probe { round = 2; p = 0.04 };
    Message.Probe_reply { round = 2; logger = 5 };
    Message.Discovery_query { nonce = 7 };
    Message.Discovery_reply { nonce = 7; logger = 9 };
    Message.Who_is_primary;
    Message.Primary_is { logger = 3 };
    Message.Replica_query;
    Message.Replica_status { seq = 44 };
    Message.Promote { replicas = [] };
    Message.Promote { replicas = [ 4; 5; 6 ] };
    Message.Ring_forward { seq = 8; epoch = 2; payload = p "ring" };
    Message.Ring_ack { seq = 8 };
    Message.Ring_set { succ = None; head = 3 };
    Message.Ring_set { succ = Some 5; head = 3 };
    Message.Quorum_ack { seq = 21 };
  ]

let all_constructors_roundtrip () = List.iter roundtrip samples

let size_model_matches () =
  List.iter
    (fun m ->
      checkb
        (Format.asprintf "size model for %s" (Message.kind m))
        true
        (Codec.roundtrip_size_matches m))
    samples

let truncation_detected () =
  List.iter
    (fun m ->
      let enc = encode_exn m in
      (* Every strict prefix must fail to decode (never succeed). *)
      for len = 0 to String.length enc - 1 do
        match Codec.decode (String.sub enc 0 len) with
        | Error _ -> ()
        | Ok m' ->
            Alcotest.failf "prefix of %s decoded as %s"
              (Message.kind m) (Message.kind m')
      done)
    samples

let trailing_detected () =
  let enc = encode_exn Message.Who_is_primary ^ "junk" in
  match Codec.decode enc with
  | Error (Codec.Trailing 4) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted trailing bytes"

let bad_tag_detected () =
  match Codec.decode "\xff" with
  | Error (Codec.Bad_tag 255) -> ()
  | _ -> Alcotest.fail "expected Bad_tag"

let bad_probability_rejected () =
  (* A Probe with p outside [0,1] must be rejected at decode. *)
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 11;
  Codec.Writer.u32 w 0;
  Codec.Writer.f64 w 2.5;
  (match Codec.decode (Codec.Writer.contents w) with
  | Error (Codec.Bad_value _) -> ()
  | _ -> Alcotest.fail "accepted p=2.5");
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 11;
  Codec.Writer.u32 w 0;
  Codec.Writer.f64 w Float.nan;
  match Codec.decode (Codec.Writer.contents w) with
  | Error (Codec.Bad_value _) -> ()
  | _ -> Alcotest.fail "accepted p=nan"

let writer_reader_primitives () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 0xAB;
  Codec.Writer.u16 w 0xCDEF;
  Codec.Writer.u32 w 123456789;
  Codec.Writer.f64 w 3.14159;
  Codec.Writer.bytes w "xyz";
  Codec.Writer.raw w "!";
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  checki "u8" 0xAB (Result.get_ok (Codec.Reader.u8 r));
  checki "u16" 0xCDEF (Result.get_ok (Codec.Reader.u16 r));
  checki "u32" 123456789 (Result.get_ok (Codec.Reader.u32 r));
  Alcotest.check (Alcotest.float 1e-12) "f64" 3.14159
    (Result.get_ok (Codec.Reader.f64 r));
  Alcotest.check Alcotest.string "bytes" "xyz"
    (Result.get_ok (Codec.Reader.bytes r));
  checki "remaining" 1 (Codec.Reader.remaining r)

let payload_views () =
  let base = "hello world" in
  let v = Payload.view base ~off:6 ~len:5 in
  Alcotest.check Alcotest.string "to_owned" "world" (Payload.to_owned v);
  checki "length" 5 (Payload.length v);
  checkb "content equality" true (Payload.equal v (p "world"));
  (* A whole-string view owns its base already: to_owned must not copy. *)
  checkb "whole view is zero-copy" true (Payload.to_owned (p base) == base);
  match Payload.view base ~off:8 ~len:10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted an out-of-bounds view"

let nack_at_bound_roundtrips () =
  (* The codec bounds NACK lists at [nack_max] seqs: the bound itself
     must round-trip through the preallocated-array path, one past it
     must be refused by the encoder (same limit the decoder enforces). *)
  let seqs = List.init Codec.nack_max (fun i -> i + 1) in
  (match Codec.decode (encode_exn (Message.Nack { seqs })) with
  | Ok (Message.Nack { seqs = seqs' }) ->
      checki "length" Codec.nack_max (List.length seqs');
      checkb "seqs preserved" true (List.equal Int.equal seqs seqs')
  | Ok m -> Alcotest.failf "decoded as %s" (Message.kind m)
  | Error e -> Alcotest.failf "decode error: %s" (Codec.error_to_string e));
  let over = List.init (Codec.nack_max + 1) (fun i -> i + 1) in
  match Codec.encode (Message.Nack { seqs = over }) with
  | Error (Codec.Bad_value _) -> ()
  | Ok _ -> Alcotest.fail "encoded an over-long nack"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

(* A NACK of [nack_seqs_max] seqs fits one datagram slot and one more
   seq would not; [nack_batches] cuts any list at that bound, in order. *)
let nack_fits_the_slot () =
  let nack n = Message.Nack { seqs = List.init n (fun i -> i + 1) } in
  checkb "the bound fits" true
    (Message.body_size (nack Codec.nack_seqs_max) <= Codec.slot_size);
  checkb "one more does not" true
    (Message.body_size (nack (Codec.nack_seqs_max + 1)) > Codec.slot_size);
  let seqs = List.init ((2 * Codec.nack_seqs_max) + 1) (fun i -> i + 1) in
  let batches = Codec.nack_batches seqs in
  Alcotest.(check (list int))
    "batch sizes"
    [ Codec.nack_seqs_max; Codec.nack_seqs_max; 1 ]
    (List.map List.length batches);
  checkb "order kept" true (List.equal Int.equal seqs (List.concat batches));
  Alcotest.(check (list (list int)))
    "nothing to send" [] (Codec.nack_batches [])

let promote_at_bound () =
  (* Fail-over Promotes carry replica floors; at [promote_max] they
     round-trip, one past it the encoder returns a typed error without
     dirtying the caller's writer. *)
  let at = List.init Codec.promote_max (fun i -> i) in
  (match Codec.decode (encode_exn (Message.Promote { replicas = at })) with
  | Ok (Message.Promote { replicas }) ->
      checki "length" Codec.promote_max (List.length replicas)
  | Ok m -> Alcotest.failf "decoded as %s" (Message.kind m)
  | Error e -> Alcotest.failf "decode error: %s" (Codec.error_to_string e));
  let over = List.init (Codec.promote_max + 1) (fun i -> i) in
  (match Codec.encode (Message.Promote { replicas = over }) with
  | Error (Codec.Bad_value _) -> ()
  | Ok _ -> Alcotest.fail "encoded an over-long promote"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e));
  let buf = Bytes.make 8192 'U' in
  match
    Codec.encode_at buf ~pos:0 ~limit:(Bytes.length buf)
      (Message.Promote { replicas = over })
  with
  | Error _ ->
      checkb "buffer untouched on error" true
        (Bytes.for_all (fun c -> c = 'U') buf)
  | Ok _ -> Alcotest.fail "encode_at accepted an over-long promote"

(* ---- Property tests over random messages ---- *)

let gen_payload =
  QCheck.Gen.(map Payload.of_string (string_size ~gen:printable (0 -- 300)))
let gen_seq = QCheck.Gen.(0 -- 1_000_000)
let gen_addr = QCheck.Gen.(0 -- 10_000)
let gen_prob = QCheck.Gen.(map (fun x -> float_of_int x /. 1000.) (0 -- 1000))

let gen_message : Message.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      ( 3,
        map3
          (fun seq epoch payload -> Message.Data { seq; epoch; payload })
          gen_seq (0 -- 100) gen_payload );
      ( 2,
        map3
          (fun seq hb_index payload ->
            Message.Heartbeat { seq; hb_index; epoch = 1; payload })
          gen_seq (0 -- 1000)
          (opt gen_payload) );
      (2, map (fun seqs -> Message.Nack { seqs }) (list_size (0 -- 40) gen_seq));
      ( 2,
        map3
          (fun seq epoch payload -> Message.Retrans { seq; epoch; payload })
          gen_seq (0 -- 100) gen_payload );
      ( 1,
        map3
          (fun seq epoch payload -> Message.Log_deposit { seq; epoch; payload })
          gen_seq (0 -- 100) gen_payload );
      ( 1,
        map2
          (fun primary_seq replica_seq ->
            Message.Log_ack { primary_seq; replica_seq })
          gen_seq gen_seq );
      ( 1,
        map2
          (fun epoch p_ack -> Message.Acker_select { epoch; p_ack })
          (0 -- 100) gen_prob );
      ( 1,
        map3
          (fun epoch seq logger -> Message.Stat_ack { epoch; seq; logger })
          (0 -- 100) gen_seq gen_addr );
      (1, map2 (fun round p -> Message.Probe { round; p }) (0 -- 20) gen_prob);
      ( 1,
        map
          (fun replicas -> Message.Promote { replicas })
          (list_size (0 -- 10) gen_addr) );
    ]

let arb_message = QCheck.make ~print:Message.show gen_message

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"codec: decode (encode m) = m" arb_message
    (fun m ->
      match Codec.decode (encode_exn m) with
      | Ok m' -> Message.equal m m'
      | Error _ -> false)

let prop_size_model =
  QCheck.Test.make ~count:500
    ~name:"codec: wire_size = |encode| + header overhead" arb_message
    Codec.roundtrip_size_matches

let prop_decode_never_raises =
  QCheck.Test.make ~count:1000 ~name:"codec: decode never raises on junk"
    QCheck.(string_gen_of_size Gen.(0 -- 64) Gen.char)
    (fun junk ->
      (match Codec.decode junk with Ok _ -> true | Error _ -> true)
      &&
      match Codec.decode_bytes (Bytes.of_string junk) with
      | Ok _ -> true
      | Error _ -> true)

let payloads_of = function
  | Message.Data { payload; _ }
  | Message.Retrans { payload; _ }
  | Message.Log_deposit { payload; _ }
  | Message.Replica_update { payload; _ }
  | Message.Ring_forward { payload; _ }
  | Message.Heartbeat { payload = Some payload; _ } ->
      [ payload ]
  | _ -> []

let prop_views_equal_owned =
  (* Decoded payloads are views over the encoded buffer; each must agree
     byte-for-byte with its owned copy. *)
  QCheck.Test.make ~count:500
    ~name:"codec: decoded views equal their to_owned copies" arb_message
    (fun m ->
      match Codec.decode (encode_exn m) with
      | Error _ -> false
      | Ok m' ->
          List.for_all
            (fun v ->
              let owned = Payload.to_owned v in
              String.length owned = Payload.length v
              && String.equal owned (Payload.to_string v)
              && Payload.equal v (Payload.of_string owned))
            (payloads_of m'))

let prop_mutation_fuzz =
  (* Flip bytes of valid encodings: decode must never raise and, when it
     succeeds, must yield a message whose re-encoding round-trips (i.e.
     the codec is total and self-consistent even on corrupted input). *)
  QCheck.Test.make ~count:1000 ~name:"codec: byte mutations never crash"
    QCheck.(triple arb_message small_nat (int_bound 255))
    (fun (m, pos, byte) ->
      let enc = Bytes.of_string (encode_exn m) in
      if Bytes.length enc = 0 then true
      else begin
        Bytes.set enc (pos mod Bytes.length enc) (Char.chr byte);
        match Codec.decode (Bytes.to_string enc) with
        | Error _ -> true
        | Ok m' -> (
            (* Anything the decoder accepted is within the list bounds,
               so re-encoding must succeed. *)
            match Codec.decode (encode_exn m') with
            | Ok m'' -> Message.equal m' m''
            | Error _ -> false)
      end)

(* The runtime's receive path decodes through one kept reader, re-aimed
   at a window of a slot region whose other bytes are junk.  On a valid
   encoding, a truncated one, junk, or a valid one with trailing bytes,
   it must agree with [Codec.decode] of the bare string on the message
   and on the error.  The reader is shared by every case, so state left
   over from one input would show in the next. *)
let kept_reader = Codec.Reader.create ""

let in_place region ~pos ~len =
  match Codec.decode_bytes_exn kept_reader region ~pos ~len with
  | m -> Ok m
  | exception Codec.Malformed e -> Error e

let gen_wire =
  let open QCheck.Gen in
  let valid = map encode_exn gen_message in
  oneof
    [
      valid;
      map2 (fun s n -> String.sub s 0 (n mod String.length s)) valid nat;
      string_size ~gen:char (0 -- 64);
      map2 ( ^ ) valid (string_size ~gen:char (1 -- 8));
    ]

let prop_in_place_agrees =
  QCheck.Test.make ~count:1000
    ~name:"codec: in-place decode agrees with decode"
    QCheck.(
      triple (make ~print:String.escaped gen_wire) (int_bound 64) char)
    (fun (s, off, fill) ->
      let len = String.length s in
      let region = Bytes.make (off + len + 16) fill in
      Bytes.blit_string s 0 region off len;
      match (in_place region ~pos:off ~len, Codec.decode s) with
      | Ok a, Ok b -> Message.equal a b
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)

let encode_at_slots () =
  (* [encode_at] is the batched runtime's entry point: it must place the
     message exactly at [pos], never touch bytes outside [pos, pos+size),
     and leave the buffer untouched on any error. *)
  let m = Message.Data { seq = 17; epoch = 3; payload = p "slotted" } in
  let size = Message.body_size m in
  let buf = Bytes.make (size + 16) '\xAA' in
  (match Codec.encode_at buf ~pos:8 ~limit:(8 + size) m with
  | Error e -> Alcotest.failf "encode_at: %s" (Codec.error_to_string e)
  | Ok n ->
      checki "returned length is body_size" size n;
      (match Codec.decode_bytes ~pos:8 ~len:n buf with
      | Ok m' -> Alcotest.check msg_testable "roundtrips at offset" m m'
      | Error e -> Alcotest.failf "decode_bytes: %s" (Codec.error_to_string e));
      for i = 0 to 7 do
        checkb "prefix guard untouched" true (Bytes.get buf i = '\xAA')
      done;
      for i = 8 + size to Bytes.length buf - 1 do
        checkb "suffix guard untouched" true (Bytes.get buf i = '\xAA')
      done);
  (* Slot too small: refused up front, nothing written. *)
  let tight = Bytes.make (size + 8) '\xBB' in
  (match Codec.encode_at tight ~pos:8 ~limit:(8 + size - 1) m with
  | Ok _ -> Alcotest.fail "encode_at accepted an undersized slot"
  | Error (Codec.Bad_value _) ->
      checkb "undersized slot leaves buffer untouched" true
        (Bytes.for_all (fun c -> c = '\xBB') tight)
  | Error e -> Alcotest.failf "unexpected error: %s" (Codec.error_to_string e));
  (* Validation failures are caught before the bound check writes. *)
  let over = Message.Nack { seqs = List.init (Codec.nack_max + 1) Fun.id } in
  let room = Bytes.make (8 * (Codec.nack_max + 2)) '\xCC' in
  match Codec.encode_at room ~pos:0 ~limit:(Bytes.length room) over with
  | Ok _ -> Alcotest.fail "encode_at accepted an over-bound NACK"
  | Error (Codec.Bad_value _) ->
      checkb "invalid message leaves buffer untouched" true
        (Bytes.for_all (fun c -> c = '\xCC') room)
  | Error e -> Alcotest.failf "unexpected error: %s" (Codec.error_to_string e)

let prop_promote_bound =
  (* Encoding succeeds exactly within the decoder's Promote bound, and
     every encodable Promote round-trips. *)
  QCheck.Test.make ~count:60 ~name:"codec: promote encodes iff within bound"
    QCheck.(int_range (Codec.promote_max - 30) (Codec.promote_max + 30))
    (fun n ->
      let m = Message.Promote { replicas = List.init n (fun i -> i) } in
      match Codec.encode m with
      | Ok s -> (
          n <= Codec.promote_max
          &&
          match Codec.decode s with
          | Ok m' -> Message.equal m m'
          | Error _ -> false)
      | Error (Codec.Bad_value _) -> n > Codec.promote_max
      | Error _ -> false)

let prop_control_classification =
  QCheck.Test.make ~count:300
    ~name:"message: payload-bearing packets are not control" arb_message
    (fun m ->
      match m with
      | Message.Data _ | Message.Retrans _ -> not (Message.is_control m)
      | Message.Heartbeat { payload = Some _; _ } -> not (Message.is_control m)
      | _ -> Message.is_control m)

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "all constructors roundtrip" `Quick
            all_constructors_roundtrip;
          Alcotest.test_case "size model matches encoding" `Quick
            size_model_matches;
          Alcotest.test_case "every truncation detected" `Quick
            truncation_detected;
          Alcotest.test_case "trailing bytes detected" `Quick trailing_detected;
          Alcotest.test_case "bad tag detected" `Quick bad_tag_detected;
          Alcotest.test_case "bad probability rejected" `Quick
            bad_probability_rejected;
          Alcotest.test_case "writer/reader primitives" `Quick
            writer_reader_primitives;
          Alcotest.test_case "payload views" `Quick payload_views;
          Alcotest.test_case "nack at the 65536 bound" `Quick
            nack_at_bound_roundtrips;
          Alcotest.test_case "promote at the 1024 bound" `Quick
            promote_at_bound;
          Alcotest.test_case "encode_at fills slots in place" `Quick
            encode_at_slots;
          Alcotest.test_case "nack fits the datagram slot" `Quick
            nack_fits_the_slot;
        ] );
      ( "properties",
        [
          qtest prop_roundtrip;
          qtest prop_size_model;
          qtest prop_decode_never_raises;
          qtest prop_views_equal_owned;
          qtest prop_mutation_fuzz;
          qtest prop_promote_bound;
          qtest prop_control_classification;
          qtest prop_in_place_agrees;
        ] );
    ]
