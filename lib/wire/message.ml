type seq = Lbrm_util.Seqno.t

let pp_seq = Lbrm_util.Seqno.pp
let equal_seq : seq -> seq -> bool = Int.equal
let _ = pp_seq

type address = int [@@deriving show, eq]

type t =
  | Data of { seq : seq; epoch : int; payload : Payload.t }
  | Heartbeat of {
      seq : seq;
      hb_index : int;
      epoch : int;
      payload : Payload.t option;
    }
  | Nack of { seqs : seq list }
  | Retrans of { seq : seq; epoch : int; payload : Payload.t }
  | Log_deposit of { seq : seq; epoch : int; payload : Payload.t }
  | Log_ack of { primary_seq : seq; replica_seq : seq }
  | Replica_update of { seq : seq; epoch : int; payload : Payload.t }
  | Replica_ack of { seq : seq }
  | Acker_select of { epoch : int; p_ack : float }
  | Acker_reply of { epoch : int; logger : address }
  | Stat_ack of { epoch : int; seq : seq; logger : address }
  | Probe of { round : int; p : float }
  | Probe_reply of { round : int; logger : address }
  | Discovery_query of { nonce : int }
  | Discovery_reply of { nonce : int; logger : address }
  | Who_is_primary
  | Primary_is of { logger : address }
  | Replica_query
  | Replica_status of { seq : seq }
  | Promote of { replicas : address list }
  | Ring_forward of { seq : seq; epoch : int; payload : Payload.t }
  | Ring_ack of { seq : seq }
  | Ring_set of { succ : address option; head : address }
  | Quorum_ack of { seq : seq }
[@@deriving show, eq]

let header_overhead = 28

(* Body sizes must match Codec exactly; Codec's round-trip tests assert
   this.  Field widths: tag 1, ints 4, seqs 4, floats 8, payload
   length-prefix 4, option flag 1. *)
let body_size = function
  | Data { payload; _ } -> 1 + 4 + 4 + 4 + Payload.length payload
  | Heartbeat { payload; _ } -> (
      1 + 4 + 4 + 4 + 1
      + match payload with None -> 0 | Some p -> 4 + Payload.length p)
  | Nack { seqs } -> 1 + 4 + (4 * List.length seqs)
  | Retrans { payload; _ } -> 1 + 4 + 4 + 4 + Payload.length payload
  | Log_deposit { payload; _ } -> 1 + 4 + 4 + 4 + Payload.length payload
  | Log_ack _ -> 1 + 4 + 4
  | Replica_update { payload; _ } -> 1 + 4 + 4 + 4 + Payload.length payload
  | Replica_ack _ -> 1 + 4
  | Acker_select _ -> 1 + 4 + 8
  | Acker_reply _ -> 1 + 4 + 4
  | Stat_ack _ -> 1 + 4 + 4 + 4
  | Probe _ -> 1 + 4 + 8
  | Probe_reply _ -> 1 + 4 + 4
  | Discovery_query _ -> 1 + 4
  | Discovery_reply _ -> 1 + 4 + 4
  | Who_is_primary -> 1
  | Primary_is _ -> 1 + 4
  | Replica_query -> 1
  | Replica_status _ -> 1 + 4
  | Promote { replicas } -> 1 + 4 + (4 * List.length replicas)
  | Ring_forward { payload; _ } -> 1 + 4 + 4 + 4 + Payload.length payload
  | Ring_ack _ -> 1 + 4
  | Ring_set { succ; _ } -> (
      1 + 1 + 4 + match succ with None -> 0 | Some _ -> 4)
  | Quorum_ack _ -> 1 + 4

let wire_size m = header_overhead + body_size m

let kind = function
  | Data _ -> "data"
  | Heartbeat _ -> "heartbeat"
  | Nack _ -> "nack"
  | Retrans _ -> "retrans"
  | Log_deposit _ -> "log_deposit"
  | Log_ack _ -> "log_ack"
  | Replica_update _ -> "replica_update"
  | Replica_ack _ -> "replica_ack"
  | Acker_select _ -> "acker_select"
  | Acker_reply _ -> "acker_reply"
  | Stat_ack _ -> "stat_ack"
  | Probe _ -> "probe"
  | Probe_reply _ -> "probe_reply"
  | Discovery_query _ -> "discovery_query"
  | Discovery_reply _ -> "discovery_reply"
  | Who_is_primary -> "who_is_primary"
  | Primary_is _ -> "primary_is"
  | Replica_query -> "replica_query"
  | Replica_status _ -> "replica_status"
  | Promote _ -> "promote"
  | Ring_forward _ -> "ring_forward"
  | Ring_ack _ -> "ring_ack"
  | Ring_set _ -> "ring_set"
  | Quorum_ack _ -> "quorum_ack"

let is_cumulative_ack = function
  | Log_ack _ | Replica_ack _ | Ring_ack _ | Quorum_ack _ -> true
  | _ -> false

(* Nested matches, not a match on the pair: the hot-path lint counts a
   tuple scrutinee as a construction. *)
let[@lint.hot] supersedes next prev =
  let open Lbrm_util.Seqno in
  match next with
  | Log_ack n -> (
      match prev with
      | Log_ack p ->
          n.primary_seq >= p.primary_seq && n.replica_seq >= p.replica_seq
      | _ -> false)
  | Replica_ack n -> (
      match prev with Replica_ack p -> n.seq >= p.seq | _ -> false)
  | Ring_ack n -> ( match prev with Ring_ack p -> n.seq >= p.seq | _ -> false)
  | Quorum_ack n -> (
      match prev with Quorum_ack p -> n.seq >= p.seq | _ -> false)
  | _ -> false

let is_control = function
  | Data _ | Retrans _ -> false
  | Heartbeat { payload = Some _; _ } -> false
  | Heartbeat { payload = None; _ } -> true
  | Nack _ | Log_deposit _ | Log_ack _ | Replica_update _ | Replica_ack _
  | Acker_select _ | Acker_reply _ | Stat_ack _ | Probe _ | Probe_reply _
  | Discovery_query _ | Discovery_reply _ | Who_is_primary | Primary_is _
  | Replica_query | Replica_status _ | Promote _ | Ring_forward _ | Ring_ack _
  | Ring_set _ | Quorum_ack _ ->
      true
