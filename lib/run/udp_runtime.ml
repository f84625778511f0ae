module Codec = Lbrm_wire.Codec
module Message = Lbrm_wire.Message
module Engine = Lbrm_sim.Engine
module Metrics = Lbrm_util.Metrics
module Rng = Lbrm_util.Rng
module Trace = Lbrm.Trace

(* The transport's side of an agent, handed back by the host on every
   send. *)
type endpoint = { port : int; socket : Unix.file_descr }
type agent = endpoint Agent_host.agent

type stats = {
  sent : int;
  merged : int;
  dropped : int;
  encode_failures : int;
  oversize : int;
  tx_batches : int;
  tx_datagrams : int;
  rx_batches : int;
  rx_datagrams : int;
  rx_truncated : int;
  pool_fallbacks : int;
}

(* Everything the transport touches: sockets, slot region, tx stage, rx ring,
   and the engine whose queue holds the agents' timers.  The agent host
   sits on top in [t]. *)
type io = {
  ip : int; (* host-order IPv4 of bind_ip for the sendmmsg stub *)
  loss : float;
  rng : Rng.t;
  started : float; (* monotonic epoch *)
  use_mmsg : bool;
  batch : int;
  slot_size : int;
  (* [2 * batch] slots of [slot_size] bytes: the receive ring's slot [i]
     at [i * slot_size], the transmit stage's slot [i] at
     [(batch + i) * slot_size]. *)
  region : Bytes.t;
  (* Each group's member ports, ascending.  A join or leave replaces
     the array, never mutates it, so [fan_out] walks it in place. *)
  groups : (int, int array) Hashtbl.t;
  sink : Trace.sink;
  runtime_metrics : Metrics.t;
  by_socket : (Unix.file_descr, agent) Hashtbl.t; (* for the select loop *)
  engine : Engine.t; (* its clock is [clock], moved by [read_clock] *)
  mutable sockets : Unix.file_descr list; (* select set; by_socket's keys *)
  sockaddr_of : int -> Unix.sockaddr; (* cached ADDR_INET per port *)
  (* The last clock reading, taken once per receive batch, send call,
     perform and loop turn; the engine's clock follows it.  Stored
     boxed: every handler of that batch gets the same box instead of
     boxing a reading of its own. *)
  mutable clock : float;
  (* Transmit stage: up to [batch] datagrams encoded into its fixed
     slots, all bound to [tx_fd]'s socket, flushed in one sendmmsg.  The
     stage is flushed as soon as it holds [batch], so it never needs
     more slots than that. *)
  mutable tx_fd : Unix.file_descr; (* meaningful iff tx_count > 0 *)
  tx_offs : int array;
  tx_lens : int array;
  tx_ports : int array;
  (* Slot [i]'s message when it is a cumulative ack, else [no_ack]: what
     a newer ack to the same port may supersede. *)
  tx_acks : Message.t array;
  mutable tx_count : int;
  (* Receive ring: [batch] fixed slots scattered into by every
     recvmmsg; decoded views alias them until the next drain refills. *)
  rx_offs : int array;
  rx_lens : int array;
  rx_ports : int array;
  mutable sent : int;
  mutable merged : int;
  mutable dropped : int;
  mutable encode_failures : int;
  mutable oversize : int;
  mutable tx_batches : int;
  mutable tx_datagrams : int;
  mutable rx_batches : int;
  mutable rx_datagrams : int;
  mutable rx_truncated : int;
  (* The codec's kept cursors, re-aimed at every slot: decode and
     encode allocate neither. *)
  reader : Codec.Reader.t;
  writer : Codec.Writer.t;
  mutable jumbo : Bytes.t; (* grown scratch for oversize messages *)
}

type t = { io : io; host : endpoint Agent_host.t }

let elapsed io = Sockmsg.monotonic_now () -. io.started

(* Moving the engine's clock fires nothing: timers that fall due wait
   for the event loop's [fire_due_timers]. *)
let read_clock io =
  io.clock <- elapsed io;
  Engine.advance io.engine io.clock

(* --- transmit --------------------------------------------------------- *)

let flush_tx t =
  if t.tx_count > 0 then begin
    Sockmsg.send_batch ~use_mmsg:t.use_mmsg ~use_gso:true t.tx_fd t.region
      ~offs:t.tx_offs ~lens:t.tx_lens ~ports:t.tx_ports ~count:t.tx_count
      ~ip:t.ip ~sockaddr:t.sockaddr_of;
    t.tx_batches <- t.tx_batches + 1;
    t.tx_datagrams <- t.tx_datagrams + t.tx_count;
    t.tx_count <- 0
  end

let encode_failure t ep msg =
  t.encode_failures <- t.encode_failures + 1;
  Metrics.incr (Metrics.counter t.runtime_metrics "tx.encode_failed");
  if Trace.is_on t.sink then
    Trace.emit t.sink ~at:(elapsed t) ~node:ep.port
      (Trace.Encode_failed
         { kind = Message.kind msg; size = Message.body_size msg })

(* Messages too big for a transmit slot (jumbo application payloads) take a
   growable-scratch + one-shot-send slow path rather than failing: the
   scratch grows to the message's exact size, then the encode core
   writes into it. *)
let send_oversize t ep ~dst msg =
  let size = Message.body_size msg in
  if Bytes.length t.jumbo < size then t.jumbo <- Bytes.create size;
  match Codec.encode_at_exn t.writer t.jumbo ~pos:0 ~limit:size msg with
  | exception Codec.Malformed _ -> encode_failure t ep msg
  | len ->
      t.oversize <- t.oversize + 1;
      t.sent <- t.sent + 1;
      Sockmsg.send_one ep.socket t.jumbo ~off:0 ~len (t.sockaddr_of dst)

(* Stands in the ack column for a staged datagram that is no cumulative
   ack: [Message.supersedes] never holds against it. *)
let no_ack = Message.Who_is_primary

let[@lint.hot] rec last_staged_to (ports : int array) dst i =
  if i < 0 then -1
  else if Array.unsafe_get ports i = dst then i
  else last_staged_to ports dst (i - 1)

(* A cumulative ack that supersedes the newest datagram staged to the
   same port is encoded over it: one datagram leaves where two were
   asked for.  Only the newest one to the port is replaced, so each port
   still gets its datagrams in send order, minus acks that their
   dominator followed at once.  True when [msg] was merged. *)
let[@lint.hot] merge_ack t ~dst msg =
  let i = last_staged_to t.tx_ports dst (t.tx_count - 1) in
  i >= 0
  && Message.supersedes msg (Array.unsafe_get t.tx_acks i)
  &&
  let off = Array.unsafe_get t.tx_offs i in
  match
    Codec.encode_at_exn t.writer t.region ~pos:off
      ~limit:(off + t.slot_size) msg
  with
  | exception Codec.Malformed _ -> false
  | size ->
      Array.unsafe_set t.tx_lens i size;
      Array.unsafe_set t.tx_acks i msg;
      t.merged <- t.merged + 1;
      true

(* Every datagram that reaches the kernel bumps [t.sent]; the transport
   reports the difference to the host as the "sent.<kind>" count, so a
   merged ack counts in [t.merged] and not as sent. *)
let send_datagram t ep ~dst msg =
  if t.loss > 0. && Rng.bernoulli t.rng ~p:t.loss then
    t.dropped <- t.dropped + 1
  else begin
    (* The stage is bound to one socket per flush; agents interleave
       rarely (only via nested perform), so this almost never fires. *)
    if t.tx_count > 0 && t.tx_fd <> ep.socket then flush_tx t;
    let ack = Message.is_cumulative_ack msg in
    if ack && merge_ack t ~dst msg then ()
    else if Message.body_size msg > t.slot_size then send_oversize t ep ~dst msg
    else
      let i = t.tx_count in
      let off = t.tx_offs.(i) in
      match
        Codec.encode_at_exn t.writer t.region ~pos:off
          ~limit:(off + t.slot_size) msg
      with
      | exception Codec.Malformed _ -> encode_failure t ep msg
      | size ->
          t.tx_fd <- ep.socket;
          t.tx_lens.(i) <- size;
          t.tx_ports.(i) <- dst;
          t.tx_acks.(i) <- (if ack then msg else no_ack);
          t.tx_count <- i + 1;
          t.sent <- t.sent + 1;
          if t.tx_count >= t.batch then flush_tx t
  end

(* --- groups ------------------------------------------------------------ *)

let members t ~group =
  match Hashtbl.find t.groups group with
  | ports -> ports
  | exception Not_found -> [||]

let join_group t ~group ~port =
  let ports = members t ~group in
  if not (Array.mem port ports) then begin
    let ports = Array.append ports [| port |] in
    Array.sort Int.compare ports;
    Hashtbl.replace t.groups group ports
  end

let leave_group t ~group ~port =
  let ports = members t ~group in
  if Array.mem port ports then
    Hashtbl.replace t.groups group
      (Array.of_list (List.filter (( <> ) port) (Array.to_list ports)))

(* Unicast fan-out over every member but the sender, walking the group's
   port array in place; TTL scoping is meaningless here.  Every member
   gets every datagram: a receiver that sees no loss never speaks, and
   senders never gate on receiver health.  The clock reading also
   advances the engine that arms this call's timers. *)
let[@lint.hot] fan_out t ep ~group msg =
  let ports = members t ~group in
  let before = t.sent in
  read_clock t;
  for i = 0 to Array.length ports - 1 do
    let port = ports.(i) in
    if port <> ep.port then send_datagram t ep ~dst:port msg
  done;
  t.sent - before

let transport io =
  {
    Agent_host.engine = io.engine;
    unicast =
      (fun ep ~dst msg ->
        let before = io.sent in
        read_clock io;
        send_datagram io ep ~dst msg;
        io.sent - before);
    multicast = (fun ep ~group ~ttl:_ msg -> fan_out io ep ~group msg);
    join = (fun ~group port -> join_group io ~group ~port);
    leave = (fun ~group port -> leave_group io ~group ~port);
  }

let create ?(bind_ip = "127.0.0.1") ?(loss = 0.) ?(seed = 1) ?(batch = 64)
    ?(slot_size = Lbrm_wire.Codec.slot_size) ?(use_mmsg = true)
    ?(sink = Trace.null ()) () =
  let batch = max 1 (min batch Sockmsg.batch_max) in
  let slot_size = max 64 slot_size in
  let started = Sockmsg.monotonic_now () in
  let ip, ip_known =
    match Sockmsg.ipv4_of_string bind_ip with
    | Some ip -> (ip, true)
    | None -> (0, false)
  in
  let runtime_metrics = Metrics.create () in
  let addr_cache = Hashtbl.create 64 in
  let sockaddr_of port =
    try Hashtbl.find addr_cache port
    with Not_found ->
      let a = Unix.ADDR_INET (Unix.inet_addr_of_string bind_ip, port) in
      Hashtbl.add addr_cache port a;
      a
  in
  let io =
    {
      ip;
      loss;
      rng = Rng.create ~seed;
      started;
      use_mmsg = use_mmsg && Sockmsg.mmsg_available && ip_known;
      batch;
      slot_size;
      region = Bytes.create (2 * batch * slot_size);
      groups = Hashtbl.create 8;
      sink;
      runtime_metrics;
      by_socket = Hashtbl.create 16;
      engine = Engine.create ();
      sockets = [];
      sockaddr_of;
      clock = 0.;
      tx_fd = Unix.stdin;
      tx_offs = Array.init batch (fun i -> (batch + i) * slot_size);
      tx_lens = Array.make batch 0;
      tx_ports = Array.make batch 0;
      tx_acks = Array.make batch no_ack;
      tx_count = 0;
      rx_offs = Array.init batch (fun i -> i * slot_size);
      rx_lens = Array.make batch 0;
      rx_ports = Array.make batch 0;
      sent = 0;
      merged = 0;
      dropped = 0;
      encode_failures = 0;
      oversize = 0;
      tx_batches = 0;
      tx_datagrams = 0;
      rx_batches = 0;
      rx_datagrams = 0;
      rx_truncated = 0;
      reader = Codec.Reader.create "";
      writer = Codec.Writer.wrap Bytes.empty;
      jumbo = Bytes.create 4096;
    }
  in
  { io; host = Agent_host.create (transport io) }

let now t = elapsed t.io
let mmsg_active t = t.io.use_mmsg
let gso_active t = t.io.use_mmsg && Sockmsg.gso_available ()
let runtime_metrics t = t.io.runtime_metrics

let join t ~group ~port = join_group t.io ~group ~port
let leave t ~group ~port = leave_group t.io ~group ~port

let stats { io = t; _ } =
  {
    sent = t.sent;
    merged = t.merged;
    dropped = t.dropped;
    encode_failures = t.encode_failures;
    oversize = t.oversize;
    tx_batches = t.tx_batches;
    tx_datagrams = t.tx_datagrams;
    rx_batches = t.rx_batches;
    rx_datagrams = t.rx_datagrams;
    rx_truncated = t.rx_truncated;
    pool_fallbacks = 0;
  }

let agent_metrics t =
  Hashtbl.fold
    (fun _ a acc -> ((Agent_host.endpoint a).port, Agent_host.metrics a) :: acc)
    t.io.by_socket []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let perform t ~port out =
  read_clock t.io;
  Agent_host.perform t.host port out;
  flush_tx t.io

let add_agent t ~port handlers =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (t.io.sockaddr_of port);
  Unix.set_nonblock socket;
  let meter = Agent_host.meter (Metrics.create ()) in
  Hashtbl.replace t.io.by_socket socket
    (Agent_host.add t.host port { port; socket } meter handlers);
  t.io.sockets <- Hashtbl.fold (fun s _ acc -> s :: acc) t.io.by_socket []

(* --- receive ---------------------------------------------------------- *)

let receive_all { io = t; host } agent =
  let ep = Agent_host.endpoint agent in
  let continue = ref true in
  while !continue do
    let n =
      Sockmsg.recv_batch ~use_mmsg:t.use_mmsg ep.socket t.region
        ~offs:t.rx_offs ~slot:t.slot_size ~count:t.batch
        ~lens:t.rx_lens ~ports:t.rx_ports
    in
    if n = 0 then continue := false
    else begin
      read_clock t;
      t.rx_batches <- t.rx_batches + 1;
      t.rx_datagrams <- t.rx_datagrams + n;
      for i = 0 to n - 1 do
        let len = t.rx_lens.(i) in
        if len < 0 then begin
          (* Datagram bigger than a receive slot: dropped, counted. *)
          t.rx_truncated <- t.rx_truncated + 1;
          Metrics.incr (Metrics.counter t.runtime_metrics "rx.truncated")
        end
        else begin
          (* Decode in place from receive slot [i] through
             the kept reader.  Payload views alias the slot, which is
             safe because all of this datagram's actions — including
             re-encoding forwards (the transmit stage copies bytes
             immediately) and [to_owned] at retention points — run to
             completion before the next [recv_batch] refills the ring. *)
          let src_port = t.rx_ports.(i) in
          match
            Codec.decode_bytes_exn t.reader t.region ~pos:t.rx_offs.(i) ~len
          with
          | msg ->
              Agent_host.receive host agent ~now:t.clock ~src:src_port msg
          | exception Codec.Malformed _ ->
              (* malformed datagram: drop *)
              Metrics.incr (Metrics.counter t.runtime_metrics "rx.malformed")
        end
      done
    end
  done

(* A receive drain and a timer run are each one group commit on the
   disk tier (File_ops): the fsyncs the archives ask for run once per
   path at the group's end, before the low-water records that wait on
   them.  Datagrams staged earlier may leave before that commit: acks
   report the tiered memory+disk floor, which never waited for an
   fsync.  The group closes when a handler raises too. *)
let in_group f x y =
  File_ops.begin_group ();
  match f x y with
  | () -> File_ops.end_group ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      File_ops.end_group ();
      Printexc.raise_with_backtrace e bt

let drain_socket t agent =
  in_group receive_all t agent;
  flush_tx t.io

let fire_due_timers t =
  read_clock t.io;
  in_group
    (fun engine until -> Engine.run ~until engine)
    t.io.engine t.io.clock;
  flush_tx t.io

let rec drain_readable t = function
  | [] -> ()
  | s :: rest ->
      (match Hashtbl.find t.io.by_socket s with
      | agent -> drain_socket t agent
      | exception Not_found -> ());
      drain_readable t rest

let run_for t ~seconds =
  let stop_at = now t +. seconds in
  while now t < stop_at do
    fire_due_timers t;
    let timeout =
      let now = now t in
      let until_stop = stop_at -. now
      and until_timer = Engine.next_time t.io.engine -. now in
      let wait = if until_timer < until_stop then until_timer else until_stop in
      if wait > 0. then wait else 0.
    in
    match Unix.select t.io.sockets [] [] timeout with
    | readable, _, _ -> drain_readable t readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  fire_due_timers t

module Hot = struct
  let stage t ~port =
    let ep =
      Hashtbl.fold
        (fun _ a found ->
          let ep = Agent_host.endpoint a in
          if ep.port = port then Some ep else found)
        t.io.by_socket None
      |> Option.get
    in
    fun ~dst msg -> send_datagram t.io ep ~dst msg
end

let close t =
  flush_tx t.io;
  Hashtbl.iter
    (fun socket agent ->
      Unix.close socket;
      Agent_host.remove t.host (Agent_host.endpoint agent).port)
    t.io.by_socket;
  Hashtbl.reset t.io.by_socket;
  t.io.sockets <- []
