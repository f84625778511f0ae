type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

type dest = To_addr of address | To_group of { group : int; ttl : int option }

type timer_key =
  | K_heartbeat
  | K_silence
  | K_nack_flush
  | K_nack_escalate of seq
  | K_deposit of seq
  | K_epoch_start
  | K_epoch_settle of int
  | K_twait of seq
  | K_probe of int
  | K_discovery of int
  | K_remcast of seq
  | K_replica_retry of seq
  | K_failover of int
  | K_uplink_nack of seq
  | K_rchannel of seq * int
  | K_app of string

type notice =
  | N_gap of seq list
  | N_silence of float
  | N_recovered of { seq : seq; latency : float }
  | N_gave_up of seq
  | N_primary_suspected
  | N_new_primary of address
  | N_epoch of { epoch : int; expected_acks : int; p_ack : float }
  | N_remulticast of seq
  | N_estimate of float
  | N_discovery of address option
  | N_feedback of { seq : seq; missing : int; expected : int }

type action =
  | Send of dest * Lbrm_wire.Message.t
  | Set_timer of timer_key * float
  | Cancel_timer of timer_key
  | Deliver of { seq : seq; payload : string; recovered : bool }
  | Notify of notice
  | Join of int
  | Leave of int

let pp_timer_key fmt = function
  | K_heartbeat -> Format.fprintf fmt "heartbeat"
  | K_silence -> Format.fprintf fmt "silence"
  | K_nack_flush -> Format.fprintf fmt "nack_flush"
  | K_nack_escalate s -> Format.fprintf fmt "nack_escalate(%d)" s
  | K_deposit s -> Format.fprintf fmt "deposit(%d)" s
  | K_epoch_start -> Format.fprintf fmt "epoch_start"
  | K_epoch_settle e -> Format.fprintf fmt "epoch_settle(%d)" e
  | K_twait s -> Format.fprintf fmt "twait(%d)" s
  | K_probe r -> Format.fprintf fmt "probe(%d)" r
  | K_discovery r -> Format.fprintf fmt "discovery(%d)" r
  | K_remcast s -> Format.fprintf fmt "remcast(%d)" s
  | K_replica_retry s -> Format.fprintf fmt "replica_retry(%d)" s
  | K_failover n -> Format.fprintf fmt "failover(%d)" n
  | K_uplink_nack s -> Format.fprintf fmt "uplink_nack(%d)" s
  | K_rchannel (s, k) -> Format.fprintf fmt "rchannel(%d,%d)" s k
  | K_app s -> Format.fprintf fmt "app(%s)" s

let pp_seq_list fmt seqs =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ";")
       Format.pp_print_int)
    seqs

let pp_notice fmt = function
  | N_gap seqs -> Format.fprintf fmt "gap %a" pp_seq_list seqs
  | N_silence dt -> Format.fprintf fmt "silence %.3fs" dt
  | N_recovered { seq; latency } ->
      Format.fprintf fmt "recovered %d after %.4fs" seq latency
  | N_gave_up s -> Format.fprintf fmt "gave_up %d" s
  | N_primary_suspected -> Format.fprintf fmt "primary_suspected"
  | N_new_primary a -> Format.fprintf fmt "new_primary %d" a
  | N_epoch { epoch; expected_acks; p_ack } ->
      Format.fprintf fmt "epoch %d (expect %d acks, p=%.3g)" epoch
        expected_acks p_ack
  | N_remulticast s -> Format.fprintf fmt "remulticast %d" s
  | N_estimate n -> Format.fprintf fmt "estimate %.1f" n
  | N_discovery (Some a) -> Format.fprintf fmt "discovered logger %d" a
  | N_discovery None -> Format.fprintf fmt "discovery failed"
  | N_feedback { seq; missing; expected } ->
      Format.fprintf fmt "feedback %d: %d/%d acks missing" seq missing expected

let pp_action fmt = function
  | Send (To_addr a, m) ->
      Format.fprintf fmt "send->%d %s" a (Lbrm_wire.Message.kind m)
  | Send (To_group { group; ttl }, m) ->
      Format.fprintf fmt "mcast->g%d(ttl=%s) %s" group
        (match ttl with None -> "max" | Some t -> string_of_int t)
        (Lbrm_wire.Message.kind m)
  | Set_timer (k, d) -> Format.fprintf fmt "set %a +%.3fs" pp_timer_key k d
  | Cancel_timer k -> Format.fprintf fmt "cancel %a" pp_timer_key k
  | Deliver { seq; recovered; _ } ->
      Format.fprintf fmt "deliver %d%s" seq (if recovered then " (recovered)" else "")
  | Notify n -> Format.fprintf fmt "notify %a" pp_notice n
  | Join g -> Format.fprintf fmt "join g%d" g
  | Leave g -> Format.fprintf fmt "leave g%d" g

let send ?ttl ~group msg = Send (To_group { group; ttl }, msg)
let send_to addr msg = Send (To_addr addr, msg)

type out = {
  mutable acts : action array;
  mutable len : int;
  mutable mark : int;
  mutable draining : int; (* host drains in progress *)
}

(* Fills every slot at or past [len].  A drained action must not stay
   reachable from the long-lived array: the next minor collection would
   promote it, and on the simulator's receive path that costs more than
   the store that clears the slot. *)
let hole = Leave (-1)

(* Eight slots hold every call on the simulator's common paths; the
   literal is allocated inline, which keeps building a thousand-machine
   deployment cheap. *)
let out () =
  {
    acts = [| hole; hole; hole; hole; hole; hole; hole; hole |];
    len = 0;
    mark = 0;
    draining = 0;
  }
let[@inline] length o = o.len
let[@inline] get o i = o.acts.(i)

(* [push] doubles a full array; every later call reuses it. *)
let grow o =
  let acts = Array.make (2 * o.len) hole in
  Array.blit o.acts 0 acts 0 o.len;
  o.acts <- acts

let[@lint.hot] [@inline] push o a =
  if o.len = Array.length o.acts then grow o;
  Array.unsafe_set o.acts o.len a;
  o.len <- o.len + 1

let[@lint.hot] [@inline] truncate o n =
  for i = n to o.len - 1 do
    Array.unsafe_set o.acts i hole
  done;
  o.len <- n;
  if o.mark > n then o.mark <- n

(* Outside a drain nothing before this call is still wanted: a result
   that was never performed is dropped here rather than kept forever. *)
let[@inline] begin_call o =
  if o.draining = 0 && o.len > 0 then truncate o 0;
  o.mark <- o.len

let discard o = truncate o o.mark

let[@inline] start_drain o =
  o.draining <- o.draining + 1;
  o.mark

let[@inline] end_drain o from =
  truncate o from;
  o.draining <- o.draining - 1

let reverse o lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let a = o.acts.(!lo) in
    o.acts.(!lo) <- o.acts.(!hi);
    o.acts.(!hi) <- a;
    incr lo;
    decr hi
  done

let hoist o ~at ~from =
  reverse o at (from - 1);
  reverse o from (o.len - 1);
  reverse o at (o.len - 1)

let collect o =
  let rec build i acc =
    if i < o.mark then acc else build (i - 1) (o.acts.(i) :: acc)
  in
  let l = build (o.len - 1) [] in
  discard o;
  l

let of_list l =
  let o = out () in
  List.iter (push o) l;
  o
