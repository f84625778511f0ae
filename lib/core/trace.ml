(* Typed protocol trace events (the observability plane's vocabulary).

   Every state machine emits through a [sink]; the null sink is
   disabled, and call sites guard event construction behind [is_on] so
   a disabled sink costs one load and one branch — no allocation.

   Rendering is deterministic by construction: fixed field order, %.17g
   floats, records in emission order.  Since the simulator itself is
   deterministic (calendar-queue total order on (time, seq)), equal
   seeds produce byte-identical JSONL streams — the property the golden
   traces and the determinism soak pin down. *)

module Seqno = Lbrm_util.Seqno

type address = Lbrm_wire.Message.address
type seq = Seqno.t

(* [@@lint.telemetry]: the [dead-telemetry] lint pass checks that every
   constructor below is emitted by some machine in the linted tree. *)
type retrans_mode =
  | R_unicast of address
  | R_site_mcast
  | R_rchannel
  | R_stat
[@@lint.telemetry]

type failover_step =
  | F_suspected
  | F_query of { round : int; replicas : int }
  | F_promoted of { primary : address; redeposits : int }
  | F_kept of address
[@@lint.telemetry]

type rediscovery_step = D_started | D_adopted of address | D_exhausted
[@@lint.telemetry]

type event =
  | Send of { seq : seq }
  | Deliver of { seq : seq; recovered : bool }
  | Gap_detected of { seqs : seq list }
  | Nack_sent of { dest : address; level : int; seqs : seq list }
  | Uplink_nack of { dest : address; seqs : seq list }
  | Retrans of { seq : seq; mode : retrans_mode }
  | Heartbeat_phase of { hb_index : int; interval : float; seq : seq }
  | Deposit_sent of { seq : seq; attempt : int }
  | Deposit_acked of { primary_seq : seq; replica_seq : seq }
  | Log_write of { seq : seq; recovered : bool }
  | Failover_step of failover_step
  | Rediscovery of rediscovery_step
  | Gave_up of { seq : seq }
  | Epoch_settled of { epoch : int; expected : int; p_ack : float }
  | Stat_feedback of { seq : seq; missing : int; expected : int }
  | Silence of { elapsed : float }
  | Pop_arrival of { seq : seq; members : int; missed : int }
  | Pop_repair of { seq : seq; repaired : int; remaining : int }
  | Encode_failed of { kind : string; size : int }
  | Ring_forwarded of { seq : seq; dest : address }
  | Quorum_acked of { seq : seq; floor : seq }
  | Ack_floor of { durable : seq; acked : seq }
  | Archive_degraded of { seq : seq }
  | Archive_read of { seq : seq }
  | Segment_rotated of { segment : int }
  | Segment_compacted of { segment : int }
[@@lint.telemetry]

type record = { at : float; node : address; ev : event }

(* --- sinks ------------------------------------------------------------ *)

type sink = { mutable enabled : bool; mutable push : record -> unit }

let null () = { enabled = false; push = ignore }
let is_on sink = sink.enabled
let emit sink ~at ~node ev = if sink.enabled then sink.push { at; node; ev }

module Collector = struct
  type t = { mutable records : record list; mutable count : int }

  let create () = { records = []; count = 0 }

  let sink t =
    {
      enabled = true;
      push =
        (fun r ->
          t.records <- r :: t.records;
          t.count <- t.count + 1);
    }

  let records t = List.rev t.records
  let count t = t.count

  let clear t =
    t.records <- [];
    t.count <- 0
end

module Ring = struct
  type t = {
    slots : record option array;
    mutable next : int; (* total pushes; next slot = next mod capacity *)
  }

  let create ~capacity =
    assert (capacity > 0);
    { slots = Array.make capacity None; next = 0 }

  let capacity t = Array.length t.slots

  let sink t =
    {
      enabled = true;
      push =
        (fun r ->
          t.slots.(t.next mod Array.length t.slots) <- Some r;
          t.next <- t.next + 1);
    }

  let pushed t = t.next
  let dropped t = Stdlib.max 0 (t.next - Array.length t.slots)

  let records t =
    let cap = Array.length t.slots in
    let n = Stdlib.min t.next cap in
    let first = t.next - n in
    List.init n (fun i ->
        match t.slots.((first + i) mod cap) with
        | Some r -> r
        | None -> assert false)
end

(* --- rendering -------------------------------------------------------- *)

let mode_label = function
  | R_unicast _ -> "unicast"
  | R_site_mcast -> "site_mcast"
  | R_rchannel -> "rchannel"
  | R_stat -> "stat_remcast"

let float_field f = Printf.sprintf "%.17g" f

let seqs_field seqs =
  "[" ^ String.concat "," (List.map string_of_int seqs) ^ "]"

(* One JSON object per record, fixed key order, no whitespace: the
   byte-identical determinism contract depends on this rendering never
   varying for equal inputs. *)
let event_fields buf ev =
  let add = Buffer.add_string buf in
  match ev with
  | Send { seq } -> add (Printf.sprintf {|"ev":"send","seq":%d|} seq)
  | Deliver { seq; recovered } ->
      add
        (Printf.sprintf {|"ev":"deliver","seq":%d,"recovered":%b|} seq
           recovered)
  | Gap_detected { seqs } ->
      add (Printf.sprintf {|"ev":"gap_detected","seqs":%s|} (seqs_field seqs))
  | Nack_sent { dest; level; seqs } ->
      add
        (Printf.sprintf {|"ev":"nack_sent","dest":%d,"level":%d,"seqs":%s|}
           dest level (seqs_field seqs))
  | Uplink_nack { dest; seqs } ->
      add
        (Printf.sprintf {|"ev":"uplink_nack","dest":%d,"seqs":%s|} dest
           (seqs_field seqs))
  | Retrans { seq; mode } ->
      add (Printf.sprintf {|"ev":"retrans","seq":%d,"mode":"%s"|} seq
             (mode_label mode));
      (match mode with
      | R_unicast dest -> add (Printf.sprintf {|,"dest":%d|} dest)
      | R_site_mcast | R_rchannel | R_stat -> ())
  | Heartbeat_phase { hb_index; interval; seq } ->
      add
        (Printf.sprintf
           {|"ev":"heartbeat_phase","hb_index":%d,"interval":%s,"seq":%d|}
           hb_index (float_field interval) seq)
  | Deposit_sent { seq; attempt } ->
      add
        (Printf.sprintf {|"ev":"deposit_sent","seq":%d,"attempt":%d|} seq
           attempt)
  | Deposit_acked { primary_seq; replica_seq } ->
      add
        (Printf.sprintf
           {|"ev":"deposit_acked","primary_seq":%d,"replica_seq":%d|}
           primary_seq replica_seq)
  | Log_write { seq; recovered } ->
      add
        (Printf.sprintf {|"ev":"log_write","seq":%d,"recovered":%b|} seq
           recovered)
  | Failover_step step -> (
      match step with
      | F_suspected -> add {|"ev":"failover","step":"suspected"|}
      | F_query { round; replicas } ->
          add
            (Printf.sprintf
               {|"ev":"failover","step":"query","round":%d,"replicas":%d|}
               round replicas)
      | F_promoted { primary; redeposits } ->
          add
            (Printf.sprintf
               {|"ev":"failover","step":"promoted","primary":%d,"redeposits":%d|}
               primary redeposits)
      | F_kept primary ->
          add
            (Printf.sprintf {|"ev":"failover","step":"kept","primary":%d|}
               primary))
  | Rediscovery step -> (
      match step with
      | D_started -> add {|"ev":"rediscovery","step":"started"|}
      | D_adopted logger ->
          add
            (Printf.sprintf
               {|"ev":"rediscovery","step":"adopted","logger":%d|} logger)
      | D_exhausted -> add {|"ev":"rediscovery","step":"exhausted"|})
  | Gave_up { seq } -> add (Printf.sprintf {|"ev":"gave_up","seq":%d|} seq)
  | Epoch_settled { epoch; expected; p_ack } ->
      add
        (Printf.sprintf
           {|"ev":"epoch_settled","epoch":%d,"expected":%d,"p_ack":%s|} epoch
           expected (float_field p_ack))
  | Stat_feedback { seq; missing; expected } ->
      add
        (Printf.sprintf
           {|"ev":"stat_feedback","seq":%d,"missing":%d,"expected":%d|} seq
           missing expected)
  | Silence { elapsed } ->
      add (Printf.sprintf {|"ev":"silence","elapsed":%s|} (float_field elapsed))
  | Pop_arrival { seq; members; missed } ->
      add
        (Printf.sprintf
           {|"ev":"pop_arrival","seq":%d,"members":%d,"missed":%d|} seq
           members missed)
  | Pop_repair { seq; repaired; remaining } ->
      add
        (Printf.sprintf
           {|"ev":"pop_repair","seq":%d,"repaired":%d,"remaining":%d|} seq
           repaired remaining)
  | Encode_failed { kind; size } ->
      add
        (Printf.sprintf {|"ev":"encode_failed","kind":"%s","size":%d|} kind
           size)
  | Ring_forwarded { seq; dest } ->
      add (Printf.sprintf {|"ev":"ring_forwarded","seq":%d,"dest":%d|} seq dest)
  | Quorum_acked { seq; floor } ->
      add
        (Printf.sprintf {|"ev":"quorum_acked","seq":%d,"floor":%d|} seq floor)
  | Ack_floor { durable; acked } ->
      add
        (Printf.sprintf {|"ev":"ack_floor","durable":%d,"acked":%d|} durable
           acked)
  | Archive_degraded { seq } ->
      add (Printf.sprintf {|"ev":"archive_degraded","seq":%d|} seq)
  | Archive_read { seq } ->
      add (Printf.sprintf {|"ev":"archive_read","seq":%d|} seq)
  | Segment_rotated { segment } ->
      add (Printf.sprintf {|"ev":"segment_rotated","segment":%d|} segment)
  | Segment_compacted { segment } ->
      add (Printf.sprintf {|"ev":"segment_compacted","segment":%d|} segment)

let add_jsonl buf r =
  Buffer.add_string buf
    (Printf.sprintf {|{"at":%s,"node":%d,|} (float_field r.at) r.node);
  event_fields buf r.ev;
  Buffer.add_char buf '}'

let to_jsonl r =
  let buf = Buffer.create 96 in
  add_jsonl buf r;
  Buffer.contents buf

let jsonl_of_records records =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      add_jsonl buf r;
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

let digest records = Digest.to_hex (Digest.string (jsonl_of_records records))

(* --- queries ---------------------------------------------------------- *)

module Query = struct
  let promotions records =
    List.filter
      (fun r ->
        match r.ev with Failover_step (F_promoted _) -> true | _ -> false)
      records

  let rediscovery_adoptions records =
    List.filter
      (fun r ->
        match r.ev with Rediscovery (D_adopted _) -> true | _ -> false)
      records
end
