(* Unit tests for the production transport's parts: Sockmsg batch
   roundtrips and the UDP runtime's group fan-out over real loopback
   sockets (skipped where the environment provides none), and the
   hot-path allocation gates. *)

module Sockmsg = Lbrm_run.Sockmsg

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* --- Sockmsg over real sockets ------------------------------------------ *)

let make_socket () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.set_nonblock s;
  s

let port_of s =
  match Unix.getsockname s with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> assert false

let sockets_available =
  lazy
    (match make_socket () with
    | s ->
        Unix.close s;
        true
    | exception Unix.Unix_error _ -> false)

let require_sockets () =
  if not (Lazy.force sockets_available) then
    Alcotest.skip () (* no loopback sockets in this sandbox *)

let loopback_ip =
  match Sockmsg.ipv4_of_string "127.0.0.1" with
  | Some ip -> ip
  | None -> assert false

(* Stage [count] datagrams of the given lengths in a region, ship them
   through [send_batch], read everything back with [recv_batch] and
   check length, source port and byte-for-byte payload of each. *)
let roundtrip ~use_mmsg ~use_gso lens_in =
  let slot = 256 in
  let count = Array.length lens_in in
  let tx = make_socket () and rx = make_socket () in
  let dst = port_of rx and src = port_of tx in
  let region = Bytes.create (2 * count * slot) in
  let tx_offs = Array.init count (fun i -> i * slot) in
  let rx_offs = Array.init count (fun i -> (count + i) * slot) in
  let tx_ports = Array.make count dst in
  let rx_lens = Array.make count 0 and rx_ports = Array.make count 0 in
  Array.iteri
    (fun i len ->
      Bytes.fill region tx_offs.(i) len (Char.chr (0x41 + (i mod 26))))
    lens_in;
  Sockmsg.send_batch ~use_mmsg ~use_gso tx region ~offs:tx_offs ~lens:lens_in
    ~ports:tx_ports ~count ~ip:loopback_ip ~sockaddr:(fun p ->
      Unix.ADDR_INET (Unix.inet_addr_loopback, p));
  let got = ref 0 and spins = ref 0 in
  while !got < count && !spins < 100 do
    (match Unix.select [ rx ] [] [] 0.2 with
    | [], _, _ -> incr spins
    | _ -> ());
    let scratch_offs = Array.init (count - !got) (fun i -> rx_offs.(!got + i)) in
    let scratch_lens = Array.make (count - !got) 0 in
    let scratch_ports = Array.make (count - !got) 0 in
    let n =
      Sockmsg.recv_batch ~use_mmsg rx region ~offs:scratch_offs ~slot
        ~count:(count - !got) ~lens:scratch_lens ~ports:scratch_ports
    in
    for i = 0 to n - 1 do
      rx_lens.(!got + i) <- scratch_lens.(i);
      rx_ports.(!got + i) <- scratch_ports.(i)
    done;
    got := !got + n
  done;
  Unix.close tx;
  Unix.close rx;
  checki "all datagrams arrived" count !got;
  for i = 0 to count - 1 do
    checki "length preserved" lens_in.(i) rx_lens.(i);
    checki "source port" src rx_ports.(i);
    Alcotest.(check string)
      "payload intact"
      (Bytes.sub_string region tx_offs.(i) lens_in.(i))
      (Bytes.sub_string region rx_offs.(i) rx_lens.(i))
  done

let sockmsg_mmsg_roundtrip () =
  require_sockets ();
  (* Mixed lengths force the sendmmsg tier even with GSO enabled. *)
  roundtrip ~use_mmsg:Sockmsg.mmsg_available ~use_gso:true
    [| 17; 141; 99; 1; 255; 64; 200; 33 |]

let sockmsg_fallback_roundtrip () =
  require_sockets ();
  roundtrip ~use_mmsg:false ~use_gso:false [| 10; 20; 30; 40 |]

let sockmsg_gso_roundtrip () =
  require_sockets ();
  if not (Sockmsg.mmsg_available && Sockmsg.gso_available ()) then
    Alcotest.skip ();
  let gso0, _, _ = Sockmsg.tx_tiers () in
  (* Uniform run with a shorter final segment: one GSO super-datagram
     must come back out of the kernel as 8 distinct datagrams. *)
  roundtrip ~use_mmsg:true ~use_gso:true [| 120; 120; 120; 120; 120; 120; 120; 48 |];
  let gso1, _, _ = Sockmsg.tx_tiers () in
  checki "run took the GSO tier" 8 (gso1 - gso0)

let sockmsg_monotonic_clock () =
  let prev = ref (Sockmsg.monotonic_now ()) in
  for _ = 1 to 1000 do
    let t = Sockmsg.monotonic_now () in
    checkb "non-decreasing" true (t >= !prev);
    prev := t
  done

(* --- Group fan-out over the UDP runtime -------------------------------- *)

module U = Lbrm_run.Udp_runtime

let counting_agent rt ~port =
  let seen = ref 0 and none = Lbrm.Io.out () in
  U.add_agent rt ~port
    {
      Lbrm_run.Handlers.on_message =
        (fun ~now:_ ~src:_ _ ->
          incr seen;
          none);
      on_timer = (fun ~now:_ _ -> none);
      on_deliver = None;
      on_notice = None;
    };
  seen

let multicast rt ~port ~group =
  U.perform rt ~port
    (Lbrm.Io.of_list [ Lbrm.Io.send ~group Lbrm_wire.Message.Who_is_primary ])

(* A group send reaches every member but the sender, once.  A repeated
   join adds no copy, a leave removes the member, and an unknown group
   reaches nobody.  Members are walked in ascending port order whatever
   the join order: with injected loss, the copies that arrive are the
   ones a model drawing one loss decision per member, ascending, lets
   through. *)
let fanout_reaches_every_member () =
  require_sockets ();
  let rt = U.create () in
  let a = 49310 and b = 49311 and c = 49312 in
  let seen = List.map (fun port -> counting_agent rt ~port) [ a; b; c ] in
  List.iter (fun port -> U.join rt ~group:1 ~port) [ c; a; b; c ];
  multicast rt ~port:a ~group:1;
  multicast rt ~port:a ~group:2;
  U.leave rt ~group:1 ~port:b;
  multicast rt ~port:a ~group:1;
  U.run_for rt ~seconds:0.05;
  U.close rt;
  checki "one datagram per other member" 3 (U.stats rt).sent;
  Alcotest.(check (list int)) "received" [ 0; 1; 2 ] (List.map ( ! ) seen);
  let loss = 0.5 and seed = 11 and rounds = 8 in
  let rt = U.create ~loss ~seed () in
  let sender = 49350 and ports = [ 49354; 49351; 49353; 49352 ] in
  ignore (counting_agent rt ~port:sender);
  let seen = List.map (fun port -> (port, counting_agent rt ~port)) ports in
  List.iter (fun port -> U.join rt ~group:1 ~port) ports;
  for _ = 1 to rounds do
    multicast rt ~port:sender ~group:1
  done;
  U.run_for rt ~seconds:0.05;
  U.close rt;
  let sorted = List.sort Int.compare ports in
  let model = Lbrm_util.Rng.create ~seed in
  let expected = Array.make (List.length sorted) 0 in
  for _ = 1 to rounds do
    List.iteri
      (fun i _ ->
        if not (Lbrm_util.Rng.bernoulli model ~p:loss) then
          expected.(i) <- expected.(i) + 1)
      sorted
  done;
  Alcotest.(check (list int))
    "copies through loss, drawn in ascending order" (Array.to_list expected)
    (List.map (fun port -> !(List.assoc port seen)) sorted)

(* --- Gc cross-check for the hot-path manifest --------------------------- *)

(* The `zero` tag in ../lint.hotpaths claims a function's steady-state
   path allocates nothing; the [hot-alloc] pass proves the absence of
   allocation *sites* statically, and this test measures the claim
   dynamically with Gc.minor_words.  The measurement table below is
   keyed by manifest function name and every zero-tagged entry must
   have a row, so tagging a new function in the manifest forces writing
   its measurement here. *)

let manifest_zero_entries () =
  let ic = open_in "../lint.hotpaths" in
  let rec go acc =
    match input_line ic with
    | ln ->
        let ln =
          match String.index_opt ln '#' with
          | Some i -> String.sub ln 0 i
          | None -> ln
        in
        let acc =
          match
            String.split_on_char ' ' ln
            |> List.concat_map (String.split_on_char '\t')
            |> List.filter (fun s -> s <> "")
          with
          | [ fn; _file; "zero" ] -> fn :: acc
          | _ -> acc
        in
        go acc
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

module Metrics = Lbrm_util.Metrics
module Codec = Lbrm_wire.Codec

let data_msg =
  Lbrm_wire.Message.Data
    {
      seq = 42;
      epoch = 1;
      payload = Lbrm_wire.Payload.of_string (String.make 128 'u');
    }

let iters = 10_000

(* Minor-heap words one call of [f] allocates, averaged over [iters]
   calls.  Gc.minor_words counts words exactly; Gc.allocated_bytes is
   no substitute (on OCaml 5.1.1 it grows by 2 for a 2-word block). *)
let words_per_op ~iters f =
  let before = Gc.minor_words () in
  for i = 1 to iters do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

(* Each measurement warms its op up (buffers, tables) and returns the
   words per op of [iters] steady-state calls.  One measurement may
   vouch for several manifest entries when the ops only make sense
   together (push/truncate, the floor bookkeeping). *)
(* A real append into a temp file through the cached handle, outside a
   group: the write-through path allocates nothing.  The handle is
   released through the fs before the file goes. *)
let file_append_per_op () =
  let fs = Lbrm_run.File_ops.real in
  let path = Filename.temp_file "lbrm_transport" ".seg" in
  let record = String.make 146 'r' in
  for _ = 1 to 10 do
    fs.append path record
  done;
  let per = words_per_op ~iters:1000 (fun _ -> fs.append path record) in
  fs.remove path;
  per

(* Raised by a row that needs loopback sockets where there are none. *)
exception No_sockets

let measurements : (string list * (unit -> float)) list =
  [
    ([ "File_ops.append" ], file_append_per_op);
    ( [ "Codec.encode_at_exn" ],
      fun () ->
        (* A 128-byte Data message into a 2048-byte slot through a kept
           writer: the size comes back as an int, so nothing is boxed. *)
        let slot = Bytes.create 2048 in
        let w = Codec.Writer.create () in
        let encode _ =
          match
            Codec.encode_at_exn w slot ~pos:0 ~limit:(Bytes.length slot)
              data_msg
          with
          | n -> ignore (Sys.opaque_identity n)
          | exception Codec.Malformed _ -> Alcotest.fail "Data did not encode"
        in
        for i = 1 to 100 do
          encode i
        done;
        words_per_op ~iters encode );
    ( [
        "Replication.member_index";
        "Replication.note_floor";
        "Replication.insert_desc";
        "Replication.sort_floors";
      ],
      fun () ->
        (* One quorum-ack worth of floor bookkeeping per iteration:
           note_floor runs member_index, sort_floors runs insert_desc. *)
        let cfg =
          { Lbrm.Config.default with replication = Lbrm.Config.R_quorum }
        in
        let rep =
          Lbrm.Replication.create cfg ~self:1 ~primary:2 ~replicas:[ 3; 4; 5 ]
            ~retained:(Hashtbl.create 1)
            ()
        in
        let step floor =
          Lbrm.Replication.Hot.note_floor rep ~member:4 ~floor;
          Lbrm.Replication.Hot.sort_floors rep
        in
        for i = 1 to 100 do
          step i
        done;
        words_per_op ~iters step );
    ( [ "Archive.locate" ],
      fun () ->
        (* The disk tier's in-memory index probe: one Hashtbl.find per
           tiered retransmission lookup, hit and miss both via the
           preallocated Not_found path.  Seqs cycle past the appended
           range so both outcomes are measured. *)
        let a =
          Result.get_ok
            (Lbrm.Archive.open_ ~fs:(Lbrm.Archive.in_memory ())
               "transport-hot.log")
        in
        for seq = 1 to 64 do
          Lbrm.Archive.append a ~seq ~epoch:0 ~payload:"x"
        done;
        let probe i = ignore (Lbrm.Archive.locate a ((i mod 80) + 1)) in
        for i = 1 to 100 do
          probe i
        done;
        words_per_op ~iters probe );
    ( [ "Archive.checksum" ],
      fun () ->
        (* The closing checksum of a 128-byte data record: a plain
           recursion over the payload, no closure. *)
        let payload = String.make 128 'c' in
        let sum seq =
          ignore
            (Sys.opaque_identity
               (Lbrm.Archive.checksum ~seq ~epoch:1 ~payload))
        in
        for i = 1 to 100 do
          sum i
        done;
        words_per_op ~iters sum );
    ( [
        "Agent_host.receive";
        "Agent_host.count";
        "Agent_host.run";
        "Io.push";
        "Io.truncate";
      ],
      fun () ->
        (* One message through the shared host's receive path over an
           inert transport: per-kind "recv.<kind>" accounting, then a
           handler that pushes two prebuilt actions into its buffer and
           the host's drain of it.  A per-message name built by (^), or
           a list built per call, would show up here as words per op. *)
        let module H = Lbrm_run.Agent_host in
        let host =
          H.create
            {
              H.engine = Lbrm_sim.Engine.create ();
              unicast = (fun () ~dst:_ _ -> 0);
              multicast = (fun () ~group:_ ~ttl:_ _ -> 0);
              join = (fun ~group:_ _ -> ());
              leave = (fun ~group:_ _ -> ());
            }
        in
        let out = Lbrm.Io.out () in
        let mcast = Lbrm.Io.send ~group:1 Lbrm_wire.Message.Who_is_primary
        and notice = Lbrm.Io.Notify (Lbrm.Io.N_gave_up 1) in
        let handlers =
          {
            Lbrm_run.Handlers.on_message =
              (fun ~now:_ ~src:_ _ ->
                Lbrm.Io.begin_call out;
                Lbrm.Io.push out mcast;
                Lbrm.Io.push out notice;
                out);
            on_timer = (fun ~now:_ _ -> out);
            on_deliver = None;
            on_notice = None;
          }
        in
        let agent = H.add host 1 () (H.meter (Metrics.create ())) handlers in
        let msg = Lbrm_wire.Message.Nack { seqs = [ 1 ] } in
        for _ = 1 to 100 do
          H.receive host agent ~now:0. ~src:2 msg
        done;
        words_per_op ~iters (fun _ ->
            H.receive host agent ~now:0. ~src:2 msg) );
    ( [ "Engine.reschedule" ],
      fun () ->
        (* The MaxIT watchdog's pattern: live timers re-keyed on every
           event, both directly and as a Set_timer on a live key through
           the simulator's agent host.  Delays alternate later/earlier;
           the actions are built once, so only the re-key is counted. *)
        let module Engine = Lbrm_sim.Engine in
        let module Sim_runtime = Lbrm_run.Sim_runtime in
        let topo, _, hosts = Lbrm_sim.Builders.lan ~hosts:1 () in
        let engine = Engine.create () in
        let net =
          Lbrm_sim.Net.create ~engine ~topo
            ~size_of:Lbrm_wire.Message.wire_size ()
        in
        let rt =
          Sim_runtime.create ~net ~trace:(Lbrm_util.Metrics.create ()) ()
        in
        let node = hosts.(0) in
        let out = Lbrm.Io.out () in
        Sim_runtime.add_agent rt ~node
          {
            Lbrm_run.Handlers.on_message = (fun ~now:_ ~src:_ _ -> out);
            on_timer = (fun ~now:_ _ -> out);
            on_deliver = None;
            on_notice = None;
          };
        let timers =
          Array.init 64 (fun _ -> Engine.schedule engine ~delay:1.0 ignore)
        in
        let later = Lbrm.Io.Set_timer (Lbrm.Io.K_silence, 2.0)
        and earlier = Lbrm.Io.Set_timer (Lbrm.Io.K_silence, 1.0) in
        let perform action =
          Lbrm.Io.begin_call out;
          Lbrm.Io.push out action;
          Sim_runtime.perform rt ~node out
        in
        perform earlier;
        let rekey i =
          let odd = i land 1 = 1 in
          Engine.reschedule engine timers.(i land 63)
            ~delay:(if odd then 1.0 else 2.0);
          perform (if odd then earlier else later)
        in
        for i = 1 to 100 do
          rekey i
        done;
        words_per_op ~iters rekey );
    ( [ "Topo.transmit" ],
      fun () ->
        (* Link offerings alternating between a 10 Mbit/s link, whose
           64-packet queue fills and drains as the clock alternates
           between two constant instants, and a link that is down: the
           accepted path writes the arrival into the link's flat float
           record, the drop paths only count.  Both links are lossless,
           so the row measures the link, not a loss model's draw. *)
        let module Topo = Lbrm_sim.Topo in
        let topo = Topo.create () in
        let a = Topo.add_node topo Topo.Host
        and b = Topo.add_node topo Topo.Host in
        let up =
          Topo.add_link topo ~bandwidth:10e6 ~delay:0.001 ~queue:64 ~src:a
            ~dst:b ()
        and down = Topo.add_link topo ~src:b ~dst:a () in
        Topo.set_link_up topo down false;
        let rng = Lbrm_util.Rng.create ~seed:3 in
        let offer i =
          let link = if i land 3 = 0 then down else up in
          ignore
            (Topo.transmit link ~rng
               ~now:(if i land 1 = 1 then 1.0 else 2.0)
               ~size:128)
        in
        for i = 1 to 100 do
          offer i
        done;
        words_per_op ~iters offer );
    ( [ "Route.next_hop"; "Route.table" ],
      fun () ->
        (* One forwarded unicast hop per iteration, cycling over every
           (node, host) pair of a small Figure-1 WAN: stub hosts take the
           delegated path, routers read their own table.  The warm-up
           pass builds every table the cycle needs. *)
        let module Route = Lbrm_sim.Route in
        let wan = Lbrm_sim.Builders.dis_wan ~sites:3 ~hosts_per_site:2 () in
        let route = Route.create wan.topo in
        let n = Lbrm_sim.Topo.node_count wan.topo in
        let hosts = Array.of_list (Lbrm_sim.Builders.all_hosts wan) in
        let nh = Array.length hosts in
        let hop i =
          ignore (Route.next_hop route ~src:(i mod n) ~dst:hosts.(i / n mod nh))
        in
        for i = 0 to (n * nh) - 1 do
          hop i
        done;
        words_per_op ~iters hop );
    ( [ "Pursuit.arrival" ],
      fun () ->
        (* The receive-side ladder's look at every message: Data re-arms
           the watchdog; a Retrans from the nearest logger also clears
           its failure count, one from another logger only re-arms.
           Each writes the arrival time into the ladder's float slot
           and pushes the prebuilt re-arm action. *)
        let pursuit =
          Lbrm.Pursuit.create Lbrm.Config.default ~self:9 ~source:1
            ~loggers:[ 2; 3 ] ~missing:(fun _ -> 0) ~write_off:ignore
            ~highest:(fun () -> 0)
        in
        let out = Lbrm.Io.out () in
        let retrans =
          Lbrm_wire.Message.Retrans
            { seq = 42; epoch = 1; payload = Lbrm_wire.Payload.of_string "r" }
        in
        let arrive i =
          Lbrm.Io.begin_call out;
          Lbrm.Pursuit.arrival pursuit out
            ~now:(if i land 1 = 1 then 1.0 else 2.0)
            ~src:(2 + (i mod 3 / 2))
            (if i mod 3 = 0 then data_msg else retrans)
        in
        for i = 1 to 100 do
          arrive i
        done;
        words_per_op ~iters arrive );
    ( [ "Message.supersedes" ],
      fun () ->
        (* Dominance tests on prebuilt acks: the same kind both ways
           round, and a kind mismatch. *)
        let module M = Lbrm_wire.Message in
        let msgs =
          [|
            M.Log_ack { primary_seq = 7; replica_seq = 5 };
            M.Log_ack { primary_seq = 8; replica_seq = 4 };
            M.Quorum_ack { seq = 3 };
            M.Quorum_ack { seq = 9 };
            M.Ring_ack { seq = 9 };
          |]
        in
        let test i =
          ignore
            (Sys.opaque_identity
               (M.supersedes msgs.(i mod 5) msgs.((i + 1) mod 5)))
        in
        for i = 1 to 100 do
          test i
        done;
        words_per_op ~iters test );
    ( [ "Udp_runtime.last_staged_to"; "Udp_runtime.merge_ack" ],
      fun () ->
        (* An ack staged to [b] behind two datagrams to [c]: every later,
           higher ack to [b] scans past them and is encoded over it.
           The acks are built before the measured loop. *)
        if not (Lazy.force sockets_available) then raise No_sockets;
        let rt = U.create () in
        let a = 49370 and b = 49371 and c = 49372 in
        List.iter (fun port -> ignore (counting_agent rt ~port)) [ a; b; c ];
        let stage = U.Hot.stage rt ~port:a in
        let acks =
          Array.init (iters + 101) (fun i ->
              Lbrm_wire.Message.Log_ack { primary_seq = i; replica_seq = i })
        in
        stage ~dst:b acks.(0);
        stage ~dst:c data_msg;
        stage ~dst:c data_msg;
        for i = 1 to 100 do
          stage ~dst:b acks.(i)
        done;
        let per =
          words_per_op ~iters (fun i -> stage ~dst:b acks.(100 + i))
        in
        let st = U.stats rt in
        U.close rt;
        checki "every later ack merged" (iters + 100) st.merged;
        checki "three datagrams staged" 3 st.sent;
        per );
    ( [ "Metrics.incr"; "Metrics.add" ],
      fun () ->
        let m = Metrics.create () in
        let c = Metrics.counter m "transport.test.hot" in
        for _ = 1 to 100 do
          Metrics.incr c;
          Metrics.add c 2
        done;
        words_per_op ~iters (fun _ ->
            Metrics.incr c;
            Metrics.add c 2) );
  ]

let manifest_zero_allocs () =
  let entries = manifest_zero_entries () in
  checkb "manifest has zero-tagged entries" true (entries <> []);
  let skipped = ref false in
  List.iter
    (fun fn ->
      match List.find_opt (fun (fns, _) -> List.mem fn fns) measurements with
      | None ->
          Alcotest.fail
            (Printf.sprintf
               "zero-tagged manifest entry %s has no Gc measurement; add one \
                to test_transport.ml"
               fn)
      | Some (_, measure) -> (
          match measure () with
          | exception No_sockets -> skipped := true
          | per_op ->
              if per_op >= 0.02 then
                Alcotest.fail
                  (Printf.sprintf
                     "%s allocates %.4f words/op in steady state; the \
                      manifest tags it zero"
                     fn per_op)))
    entries;
  (* Every other row has run; the ones that stage from a socket wait
     for a sandbox with loopback sockets. *)
  if !skipped then Alcotest.skip ()

(* --- Words per delivery on the simulator's two hottest paths ------------- *)

(* A warm multicast over the paper's Figure-1 WAN at DIS scale (50 sites
   of 23 hosts): every link offering, arrival event and handler call it
   costs, divided by the copies delivered.  The link decision, the
   observer hook and the handler's clock allocate nothing, so what is
   left is the per-event closures and the boxed arrival times. *)
let multicast_words_per_delivery () =
  let module Engine = Lbrm_sim.Engine in
  let module Net = Lbrm_sim.Net in
  let module Builders = Lbrm_sim.Builders in
  let wan = Builders.dis_wan ~sites:50 ~hosts_per_site:23 () in
  let engine = Engine.create () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of:String.length () in
  let delivered = ref 0 in
  let handler ~src:_ _ = incr delivered in
  List.iter
    (fun h ->
      Net.join net ~group:1 h;
      Net.set_handler net h handler)
    (Builders.all_hosts wan);
  let src = wan.sites.(0).Builders.hosts.(0) in
  let payload = String.make 128 'd' in
  let send () =
    Net.multicast net ~src ~group:1 payload;
    Engine.run engine
  in
  for _ = 1 to 3 do
    send ()
  done;
  let sends = 20 in
  delivered := 0;
  let before = Gc.minor_words () in
  for _ = 1 to sends do
    send ()
  done;
  let words = Gc.minor_words () -. before in
  checki "every member but the source, every send" (sends * 1149) !delivered;
  let per = words /. float_of_int !delivered in
  if per > 6.0 then
    Alcotest.failf "warm multicast allocates %.2f words per delivery (max 6)"
      per

(* Words per call of [f] over [warm + iters] prebuilt in-order Data
   messages, after [warm] unmeasured calls. *)
let in_order_words f =
  let module Message = Lbrm_wire.Message in
  let payload = Lbrm_wire.Payload.of_string (String.make 128 'd') in
  let warm = 100 in
  let msgs =
    Array.init (warm + iters) (fun i ->
        Message.Data { seq = i + 1; epoch = 0; payload })
  in
  for i = 0 to warm - 1 do
    f msgs.(i)
  done;
  words_per_op ~iters (fun i -> f msgs.(warm + i - 1))

let gate what ~max per =
  if per > max then
    Alcotest.failf "%s allocates %.2f words per call (max %g)" what per max

(* The receiver's in-order Data: the watchdog re-arm is a prebuilt
   action, the gap tracker's floor is an int and the actions go into the
   receiver's reusable buffer, so all that is left is the [Deliver]
   block. *)
let receiver_in_order_words () =
  let r =
    Lbrm.Receiver.create Lbrm.Config.default ~self:10 ~source:1 ~loggers:[ 2 ]
  in
  let per =
    in_order_words (fun m ->
        ignore (Lbrm.Receiver.handle_message r ~now:1.0 ~src:1 m))
  in
  checki "every packet delivered" (100 + iters) (Lbrm.Receiver.delivered r);
  gate "in-order Data" ~max:4.0 per

(* A secondary logger's in-order Data: the log entry and its store
   bookkeeping; the (empty) action buffer costs nothing. *)
let logger_in_order_words () =
  let l =
    Lbrm.Logger.create Lbrm.Config.default ~self:5 ~source:1 ~parent:2
      ~rng:(Lbrm_util.Rng.create ~seed:3) ()
  in
  let per =
    in_order_words (fun m ->
        ignore (Lbrm.Logger.handle_message l ~now:1.0 ~src:1 m))
  in
  gate "secondary logger in-order Data" ~max:9.5 per

(* One application send: the Data and deposit messages, their actions,
   the retained payload and the stat-ack and replication bookkeeping.
   Quorum sends one deposit per replica-set member. *)
let source_send_words replication ~max () =
  let s =
    Lbrm.Source.create
      { Lbrm.Config.default with replication }
      ~self:1 ~primary:2 ~replicas:[ 3; 4 ] ~initial_estimate:10. ()
  in
  let payload = String.make 128 'x' in
  let send _ = ignore (Lbrm.Source.send s ~now:1.0 payload) in
  for i = 1 to 100 do
    send i
  done;
  gate "Source.send" ~max (words_per_op ~iters send)

(* A Data datagram decoded in place from a receive slot through a kept
   reader: the [Data] record and its payload view (4 words each) are
   all it allocates — no reader, no optional-argument boxes, no [Ok]. *)
let in_place_decode_words () =
  let slot = Bytes.create 2048 in
  let w = Codec.Writer.create () and r = Codec.Reader.create "" in
  let len =
    match Codec.encode_at_exn w slot ~pos:64 ~limit:2048 data_msg with
    | n -> n
    | exception Codec.Malformed _ -> Alcotest.fail "Data did not encode"
  in
  let decode _ =
    match Codec.decode_bytes_exn r slot ~pos:64 ~len with
    | Lbrm_wire.Message.Data _ -> ()
    | _ -> Alcotest.fail "decoded the wrong message"
    | exception Codec.Malformed _ -> Alcotest.fail "Data did not decode"
  in
  for i = 1 to 100 do
    decode i
  done;
  gate "in-place Data decode" ~max:8.0 (words_per_op ~iters decode)

(* A filesystem that keeps nothing: what [Archive.append] allocates
   itself, without the cost of a real write. *)
let discarding_fs : Lbrm.Archive.fs =
  {
    exists = (fun _ -> false);
    size = (fun _ -> 0);
    read_at = (fun _ ~pos:_ ~len:_ -> "");
    append = (fun _ _ -> ());
    truncate = (fun _ ~len:_ -> ());
    remove = ignore;
    fsync = ignore;
  }

(* One spill of a 128-byte payload into the default 256 KiB segments:
   the 146-byte record string (20 words) and its index bucket (4). The
   seals within the run build arrays of 1 795 entries, which go
   straight to the major heap, and the low-water records every 32
   appends cost 4 words each. *)
let archive_append_words () =
  let a =
    Result.get_ok (Lbrm.Archive.open_ ~fs:discarding_fs "transport-spill.log")
  in
  let payload = String.make 128 'a' in
  let spill seq = Lbrm.Archive.append a ~seq ~epoch:1 ~payload in
  for seq = 1 to 100 do
    spill seq
  done;
  let per = words_per_op ~iters (fun i -> spill (100 + i)) in
  checki "every record indexed" (100 + iters) (Lbrm.Archive.count a);
  gate "Archive.append" ~max:25.0 per

let file_append_words () =
  gate "File_ops.append" ~max:0.0 (file_append_per_op ())

(* The CI trend gate: the same baseline passes against itself, and one
   extra word/op, one more missing packet, or a durable floor one seq
   lower, on one row fails it. *)
let trend_gate current =
  Sys.command
    (Printf.sprintf
       "../bench/check_trend.exe trend_fixtures/baseline.json \
        trend_fixtures/%s > /dev/null"
       current)

let trend_gate_words () =
  checki "unchanged baseline passes" 0 (trend_gate "baseline.json");
  checki "one extra word/op fails" 1 (trend_gate "one_more_word.json")

let trend_gate_outcomes () =
  checki "one more missing packet fails" 1 (trend_gate "one_more_missing.json")

let trend_gate_durable () =
  checki "one less durable seq fails" 1 (trend_gate "one_less_durable.json")

let () =
  Alcotest.run "transport"
    [
      ( "sockmsg",
        [
          Alcotest.test_case "mmsg roundtrip" `Quick sockmsg_mmsg_roundtrip;
          Alcotest.test_case "fallback roundtrip" `Quick
            sockmsg_fallback_roundtrip;
          Alcotest.test_case "gso roundtrip" `Quick sockmsg_gso_roundtrip;
          Alcotest.test_case "monotonic clock" `Quick sockmsg_monotonic_clock;
        ] );
      ( "group_fanout",
        [
          Alcotest.test_case "fan-out reaches every member" `Quick
            fanout_reaches_every_member;
        ] );
      ( "hot_paths",
        [
          Alcotest.test_case "zero-tagged manifest entries allocate nothing"
            `Quick manifest_zero_allocs;
          Alcotest.test_case "warm WAN multicast: at most 6 words per delivery"
            `Quick multicast_words_per_delivery;
          Alcotest.test_case "receiver in-order Data gate" `Quick
            receiver_in_order_words;
          Alcotest.test_case "trend gate trips on one extra word/op" `Quick
            trend_gate_words;
          Alcotest.test_case "trend gate trips on one more missing packet"
            `Quick trend_gate_outcomes;
          Alcotest.test_case "trend gate trips on one less durable seq"
            `Quick trend_gate_durable;
          Alcotest.test_case "logger in-order Data gate" `Quick
            logger_in_order_words;
          Alcotest.test_case "Source.send gate" `Quick
            (source_send_words Lbrm.Config.R_primary ~max:48.5);
          Alcotest.test_case "Source.send gate, quorum" `Quick
            (source_send_words Lbrm.Config.R_quorum ~max:66.5);
          Alcotest.test_case "in-place Data decode gate" `Quick
            in_place_decode_words;
          Alcotest.test_case "Archive.append gate" `Quick archive_append_words;
          Alcotest.test_case "File_ops.append gate" `Quick file_append_words;
        ] );
    ]
