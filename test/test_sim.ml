(* Tests for the discrete-event network simulator. *)

module Engine = Lbrm_sim.Engine
module Loss = Lbrm_sim.Loss
module Topo = Lbrm_sim.Topo
module Route = Lbrm_sim.Route
module Net = Lbrm_sim.Net
module Builders = Lbrm_sim.Builders
module Rng = Lbrm_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf eps = Alcotest.check (Alcotest.float eps)
let qtest = QCheck_alcotest.to_alcotest

(* ---- Engine ---- *)

let engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2. (fun () -> log := 2 :: !log));
  ignore (Engine.schedule e ~delay:1. (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:3. (fun () -> log := 3 :: !log));
  Engine.run e;
  Alcotest.check (Alcotest.list Alcotest.int) "in time order" [ 1; 2; 3 ]
    (List.rev !log);
  checkf 1e-9 "clock at last event" 3. (Engine.now e)

let engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule e ~delay:1. (fun () -> fired := true) in
  Engine.cancel e timer;
  Engine.run e;
  checkb "cancelled" false !fired;
  checkb "not pending" false (Engine.is_pending timer)

let engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:1. (fun () -> incr count);
  Engine.run ~until:5.5 e;
  checki "five ticks" 5 !count;
  checkf 1e-9 "clock parked at until" 5.5 (Engine.now e);
  Engine.run ~until:7.5 e;
  checki "two more" 7 !count

(* Satellite: [every ~until] must not fire one period past the
   deadline.  Dyadic periods keep the expected tick times exact. *)
let engine_every_until_last_fire () =
  let e = Engine.create () in
  let fires = ref [] in
  Engine.every e ~period:0.5 ~until:1.75 (fun () ->
      fires := Engine.now e :: !fires);
  Engine.run e;
  (* unbounded drain: nothing may outlive the deadline *)
  Alcotest.check
    (Alcotest.list (Alcotest.float 1e-12))
    "last fire at largest tick <= until" [ 0.5; 1.0; 1.5 ] (List.rev !fires);
  checkf 1e-12 "clock stops at the last fire" 1.5 (Engine.now e);
  checki "no event left past the deadline" 0 (Engine.pending e)

let engine_every_until_boundary () =
  (* [until] exactly on a tick: that tick still fires. *)
  let e = Engine.create () in
  let fires = ref [] in
  Engine.every e ~period:0.5 ~until:2.0 (fun () ->
      fires := Engine.now e :: !fires);
  Engine.run e;
  Alcotest.check
    (Alcotest.list (Alcotest.float 1e-12))
    "deadline tick included" [ 0.5; 1.0; 1.5; 2.0 ] (List.rev !fires);
  checki "queue empty" 0 (Engine.pending e)

(* Regression: [run ~until] reinserts the first not-yet-due event; a
   callback scheduled afterwards, between the pause point and that
   event, must still fire first. *)
let engine_run_until_reinsert () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:10. (fun () -> log := "far" :: !log));
  Engine.run ~until:1. e;
  checkf 1e-9 "parked at until" 1. (Engine.now e);
  ignore (Engine.schedule e ~delay:2. (fun () -> log := "near" :: !log));
  Engine.run e;
  Alcotest.check (Alcotest.list Alcotest.string) "near fires before far"
    [ "near"; "far" ] (List.rev !log)

(* Burst + mass cancellation drives the calendar queue through grow,
   unlink and shrink while ordering must stay intact. *)
let engine_burst_cancel () =
  let e = Engine.create () in
  let fired = ref 0 in
  let last = ref (-1.) in
  let timers =
    Array.init 1000 (fun i ->
        Engine.schedule e
          ~delay:(float_of_int (i mod 10) /. 100.)
          (fun () ->
            let n = Engine.now e in
            checkb "nondecreasing" true (n >= !last);
            last := n;
            incr fired))
  in
  Array.iteri (fun i tm -> if i mod 3 = 0 then Engine.cancel e tm) timers;
  Engine.run e;
  checki "cancelled timers stay silent" 666 !fired;
  checki "drained" 0 (Engine.pending e)

let engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1. (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.check (Alcotest.list Alcotest.string) "nested" [ "outer"; "inner" ]
    (List.rev !log);
  checki "2 events" 2 (Engine.events_processed e)

(* ---- Loss models ---- *)

let loss_bernoulli_rate () =
  let rng = Rng.create ~seed:4 in
  let model = Loss.bernoulli 0.3 in
  let drops = ref 0 in
  let n = 50000 in
  for i = 1 to n do
    if Loss.drops model ~rng ~now:(float_of_int i) then incr drops
  done;
  let rate = float_of_int !drops /. float_of_int n in
  checkb (Printf.sprintf "rate %.3f near 0.3" rate) true
    (Float.abs (rate -. 0.3) < 0.02)

let loss_burst_windows () =
  let rng = Rng.create ~seed:5 in
  let model = Loss.burst_windows [ (1., 2.); (5., 6.) ] in
  checkb "before" false (Loss.drops model ~rng ~now:0.5);
  checkb "inside first" true (Loss.drops model ~rng ~now:1.5);
  checkb "between" false (Loss.drops model ~rng ~now:3.);
  checkb "inside second" true (Loss.drops model ~rng ~now:5.5);
  checkb "after" false (Loss.drops model ~rng ~now:10.);
  checkb "boundary start inclusive" true (Loss.drops model ~rng ~now:1.0);
  checkb "boundary stop exclusive" false (Loss.drops model ~rng ~now:2.0)

let loss_gilbert_burstiness () =
  let rng = Rng.create ~seed:6 in
  let model = Loss.gilbert ~mean_good:10. ~mean_bad:1. in
  (* Sample a long trace at 10 Hz: loss rate should be near the bad-state
     fraction 1/11, and losses should cluster (many consecutive). *)
  let drops = ref 0 and runs = ref 0 and in_run = ref false in
  let n = 200000 in
  for i = 1 to n do
    let lost = Loss.drops model ~rng ~now:(float_of_int i /. 10.) in
    if lost then begin
      incr drops;
      if not !in_run then incr runs
    end;
    in_run := lost
  done;
  let rate = float_of_int !drops /. float_of_int n in
  checkb (Printf.sprintf "rate %.3f near 1/11" rate) true
    (Float.abs (rate -. (1. /. 11.)) < 0.02);
  (* Clustering: mean run length about mean_bad * 10 samples. *)
  let mean_run = float_of_int !drops /. float_of_int (Stdlib.max 1 !runs) in
  checkb (Printf.sprintf "bursty (mean run %.1f)" mean_run) true (mean_run > 3.)

let loss_combine () =
  let rng = Rng.create ~seed:7 in
  let model = Loss.combine [ Loss.none; Loss.burst_windows [ (0., 1.) ] ] in
  checkb "any component drops" true (Loss.drops model ~rng ~now:0.5);
  checkb "none drop" false (Loss.drops model ~rng ~now:2.)

(* ---- Links ---- *)

let link_serialization () =
  let topo = Topo.create () in
  let a = Topo.add_node topo Host and b = Topo.add_node topo Host in
  (* 1 Mbit/s, 10 ms propagation: a 1250-byte packet serializes in 10 ms. *)
  let l = Topo.add_link topo ~bandwidth:1e6 ~delay:0.01 ~src:a ~dst:b () in
  let rng = Rng.create ~seed:8 in
  checkb "first accepted" true (Topo.transmit l ~rng ~now:0. ~size:1250);
  checkf 1e-9 "tx + prop" 0.02 (Topo.arrival l);
  (* Second packet queues behind the first. *)
  checkb "second accepted" true (Topo.transmit l ~rng ~now:0. ~size:1250);
  checkf 1e-9 "queued behind" 0.03 (Topo.arrival l);
  checki "delivered counter" 2 (Topo.packets_delivered l);
  checki "bytes" 2500 (Topo.bytes_delivered l)

let link_queue_overflow () =
  let topo = Topo.create () in
  let a = Topo.add_node topo Host and b = Topo.add_node topo Host in
  let l =
    Topo.add_link topo ~bandwidth:1e6 ~delay:0.01 ~queue:2 ~src:a ~dst:b ()
  in
  let rng = Rng.create ~seed:9 in
  let outcomes =
    List.init 5 (fun _ -> Topo.transmit l ~rng ~now:0. ~size:1250)
  in
  let drops = List.length (List.filter not outcomes) in
  checkb "some queue drops" true (drops >= 2);
  checki "counter matches" drops (Topo.drops_queue l);
  checki "no loss drops" 0 (Topo.drops_loss l);
  checki "no down drops" 0 (Topo.drops_down l)

let link_infinite_bandwidth () =
  let topo = Topo.create () in
  let a = Topo.add_node topo Host and b = Topo.add_node topo Host in
  let l = Topo.add_link topo ~delay:0.005 ~src:a ~dst:b () in
  let rng = Rng.create ~seed:10 in
  checkb "accepted" true (Topo.transmit l ~rng ~now:1. ~size:1000000);
  checkf 1e-9 "pure propagation" 1.005 (Topo.arrival l)

(* ---- Routing ---- *)

let routing_shortest_path () =
  (* a --1ms-- b --1ms-- c  and a direct a--5ms--c: route via b. *)
  let topo = Topo.create () in
  let a = Topo.add_node topo Host in
  let b = Topo.add_node topo Router in
  let c = Topo.add_node topo Host in
  let _ = Topo.add_duplex topo ~delay:0.001 a b in
  let _ = Topo.add_duplex topo ~delay:0.001 b c in
  let _ = Topo.add_duplex topo ~delay:0.005 a c in
  let route = Route.create topo in
  checkf 1e-9 "distance via b" 0.002 (Route.distance route ~src:a ~dst:c);
  checki "2 hops" 2 (Route.hops route ~src:a ~dst:c);
  (match Route.next_hop route ~src:a ~dst:c with
  | Some l -> checki "first hop toward b" b (Topo.link_dst l)
  | None -> Alcotest.fail "unreachable")

let routing_unreachable () =
  let topo = Topo.create () in
  let a = Topo.add_node topo Host in
  let b = Topo.add_node topo Host in
  let route = Route.create topo in
  checkb "no route" true (Route.next_hop route ~src:a ~dst:b = None);
  checkb "infinite distance" true (Route.distance route ~src:a ~dst:b = infinity)

let routing_topology_growth () =
  (* Tables cached before the topology grew must not be indexed by the
     new node ids. *)
  let topo = Topo.create () in
  let a = Topo.add_node topo Host in
  let b = Topo.add_node topo Router in
  let ab, _ = Topo.add_duplex topo ~delay:0.001 a b in
  let route = Route.create topo in
  (match Route.next_hop route ~src:a ~dst:b with
  | Some l -> checkb "a -> b over a-b" true (l == ab)
  | None -> Alcotest.fail "b unreachable");
  let c = Topo.add_node topo Host in
  let _ = Topo.add_duplex topo ~delay:0.001 b c in
  (match Route.next_hop route ~src:a ~dst:c with
  | Some l -> checkb "a -> c leaves over a-b" true (l == ab)
  | None -> Alcotest.fail "c unreachable after growth");
  checkf 1e-9 "distance to the new node" 0.002 (Route.distance route ~src:a ~dst:c)

(* Test-local reference: plain O(n^2) Dijkstra from [src] with the
   simulator's fault semantics ([src] relaxes even when down, other
   nodes only when up; down links and down nodes are never entered).
   Returns per-node distance and first link out of [src]. *)
let reference_routes topo src =
  let n = Topo.node_count topo in
  let dist = Array.make n infinity in
  let first = Array.make n None in
  let visited = Array.make n false in
  dist.(src) <- 0.;
  let rec loop () =
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not visited.(v)) && dist.(v) < infinity
         && (!u < 0 || dist.(v) < dist.(!u))
      then u := v
    done;
    if !u >= 0 then begin
      let u = !u in
      visited.(u) <- true;
      if u = src || Topo.node_up topo u then
        List.iter
          (fun l ->
            let v = Topo.link_dst l in
            let d = dist.(u) +. Topo.link_delay l in
            if Topo.link_up l && Topo.node_up topo v && d < dist.(v) then begin
              dist.(v) <- d;
              first.(v) <- (if u = src then Some l else first.(u))
            end)
          (Topo.links_from topo u);
      loop ()
    end
  in
  loop ();
  (dist, first)

(* Every (src, dst) next hop and distance agrees with the reference. *)
let routes_match_reference topo route =
  let n = Topo.node_count topo in
  let ok = ref true in
  for src = 0 to n - 1 do
    let dist, first = reference_routes topo src in
    for dst = 0 to n - 1 do
      let same_hop =
        match (Route.next_hop route ~src ~dst, first.(dst)) with
        | None, None -> true
        | Some l, Some l' -> l == l'
        | _ -> false
      in
      if not (same_hop && Route.distance route ~src ~dst = dist.(dst)) then
        ok := false
    done
  done;
  !ok

(* Random topology: multi-homed routers on a random connected mesh, stub
   hosts (one duplex link each), and a few dual-homed hosts.  Delays are
   random floats, so shortest paths are unique. *)
let random_topology st =
  let topo = Topo.create () in
  let delay () = 0.001 +. Random.State.float st 0.01 in
  let routers =
    Array.init (2 + Random.State.int st 5) (fun _ -> Topo.add_node topo Router)
  in
  let nr = Array.length routers in
  for i = 1 to nr - 1 do
    let j = Random.State.int st i in
    ignore (Topo.add_duplex topo ~delay:(delay ()) routers.(i) routers.(j))
  done;
  for i = 0 to nr - 1 do
    for j = i + 1 to nr - 1 do
      if Random.State.int st 3 = 0 && Topo.find_link topo ~src:routers.(i) ~dst:routers.(j) = None
      then ignore (Topo.add_duplex topo ~delay:(delay ()) routers.(i) routers.(j))
    done
  done;
  let pick () = routers.(Random.State.int st nr) in
  for _ = 1 to 1 + Random.State.int st 10 do
    let h = Topo.add_node topo Host in
    ignore (Topo.add_duplex topo ~delay:(delay ()) h (pick ()))
  done;
  for _ = 1 to Random.State.int st 3 do
    let h = Topo.add_node topo Host in
    let r1 = routers.(0) and r2 = routers.(nr - 1) in
    ignore (Topo.add_duplex topo ~delay:(delay ()) h r1);
    ignore (Topo.add_duplex topo ~delay:(delay ()) h r2)
  done;
  topo

let prop_route_delegation_equivalence =
  QCheck.Test.make ~count:200
    ~name:"route: stub delegation matches full Dijkstra under faults"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let topo = random_topology st in
      let route = Route.create topo in
      let healthy = routes_match_reference topo route in
      (* Flip nodes and links down at random, then query the same route
         object again: its tables must follow the state epoch. *)
      for v = 0 to Topo.node_count topo - 1 do
        if Random.State.int st 5 = 0 then Topo.set_node_up topo v false;
        List.iter
          (fun l -> if Random.State.int st 6 = 0 then Topo.set_link_up topo l false)
          (Topo.links_from topo v)
      done;
      healthy && routes_match_reference topo route)

let routing_dis_wan_faults () =
  (* Figure 1 with one site's gateway down and another site's tail
     circuit cut in one direction. *)
  let wan = Builders.dis_wan ~sites:4 ~hosts_per_site:3 () in
  let route = Route.create wan.topo in
  Topo.set_node_up wan.topo wan.sites.(1).Builders.gateway false;
  Topo.set_link_up wan.topo wan.sites.(2).Builders.tail_up false;
  checkb "every next hop and distance matches full Dijkstra" true
    (routes_match_reference wan.topo route)

let routing_tables_for_routers_only () =
  (* Unicast from every host of a 50 x 23 Figure-1 WAN to a primary
     logger and back, plus one multicast from it: only routers and the
     one multicast root may hold a table. *)
  let wan = Builders.dis_wan ~sites:50 ~hosts_per_site:23 () in
  let engine = Engine.create () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of:String.length () in
  let primary = wan.sites.(0).Builders.hosts.(0) in
  let hosts = Builders.all_hosts wan in
  let delivered = ref 0 in
  List.iter
    (fun h ->
      Net.set_handler net h (fun ~src:_ _ -> incr delivered);
      Net.join net ~group:1 h)
    hosts;
  (* Staggered 1 ms apart so the primary's LAN queue never overflows. *)
  List.iteri
    (fun i h ->
      if h <> primary then
        Engine.post engine ~delay:(0.001 *. float_of_int i) (fun () ->
            Net.unicast net ~src:h ~dst:primary "nack";
            Net.unicast net ~src:primary ~dst:h "retrans"))
    hosts;
  Net.multicast net ~src:primary ~group:1 "data";
  Engine.run engine;
  let others = List.length hosts - 1 in
  checki "every unicast and multicast copy delivered" (3 * others) !delivered;
  let routers = ref 0 in
  for v = 0 to Topo.node_count wan.topo - 1 do
    if Topo.kind wan.topo v = Topo.Router then incr routers
  done;
  checki "Figure 1 has 101 routers" 101 !routers;
  let built = Route.tables_built (Net.route net) in
  checkb
    (Printf.sprintf "%d tables <= %d routers + 1 multicast root" built !routers)
    true
    (built <= !routers + 1)

(* ---- Net: unicast / multicast / TTL ---- *)

let mk_lan hosts =
  let topo, switch, hs = Builders.lan ~hosts () in
  let engine = Engine.create () in
  let net = Net.create ~engine ~topo ~size_of:(fun s -> String.length s) () in
  (engine, net, switch, hs)

let net_unicast () =
  let engine, net, _, hs = mk_lan 3 in
  let got = ref [] in
  Net.set_handler net hs.(1) (fun ~src msg -> got := (src, msg) :: !got);
  Net.unicast net ~src:hs.(0) ~dst:hs.(1) "hello";
  Engine.run engine;
  (match !got with
  | [ (src, "hello") ] -> checki "src" hs.(0) src
  | _ -> Alcotest.fail "expected exactly one delivery");
  (* Propagation (2 x 0.9 ms) plus serialization of 5 bytes at 10 Mbit/s
     on each hop. *)
  checkf 1e-5 "two LAN hops" ((2. *. 0.9e-3) +. (2. *. 40. /. 10e6))
    (Engine.now engine)

let net_loopback () =
  let engine, net, _, hs = mk_lan 1 in
  let got = ref 0 in
  Net.set_handler net hs.(0) (fun ~src:_ _ -> incr got);
  Net.unicast net ~src:hs.(0) ~dst:hs.(0) "self";
  Engine.run engine;
  checki "delivered to self" 1 !got

let net_multicast_membership () =
  let engine, net, _, hs = mk_lan 4 in
  let counts = Array.make 4 0 in
  Array.iteri
    (fun i h -> Net.set_handler net h (fun ~src:_ _ -> counts.(i) <- counts.(i) + 1))
    hs;
  Net.join net ~group:7 hs.(1);
  Net.join net ~group:7 hs.(2);
  Net.multicast net ~src:hs.(0) ~group:7 "m";
  Engine.run engine;
  Alcotest.check (Alcotest.array Alcotest.int) "only members" [| 0; 1; 1; 0 |]
    counts

let net_multicast_sender_excluded () =
  let engine, net, _, hs = mk_lan 2 in
  let self = ref 0 and other = ref 0 in
  Net.set_handler net hs.(0) (fun ~src:_ _ -> incr self);
  Net.set_handler net hs.(1) (fun ~src:_ _ -> incr other);
  Net.join net ~group:1 hs.(0);
  Net.join net ~group:1 hs.(1);
  Net.multicast net ~src:hs.(0) ~group:1 "m";
  Engine.run engine;
  checki "sender skipped" 0 !self;
  checki "member got it" 1 !other

let net_multicast_shared_link_once () =
  (* Two sites, three members behind the remote tail: the tail circuit
     must carry the packet exactly once. *)
  let wan = Builders.dis_wan ~sites:2 ~hosts_per_site:3 () in
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~topo:wan.topo ~size_of:(fun s -> String.length s) ()
  in
  let got = ref 0 in
  Array.iter
    (fun h ->
      Net.join net ~group:1 h;
      Net.set_handler net h (fun ~src:_ _ -> incr got))
    wan.sites.(1).hosts;
  Net.multicast net ~src:wan.sites.(0).hosts.(0) ~group:1 "m";
  Engine.run engine;
  checki "all three members" 3 !got;
  checki "tail crossed once" 1
    (Topo.packets_delivered wan.sites.(1).tail_down)

let net_ttl_scoping () =
  (* TTL 2 reaches hosts within the site (host->gw->host) but not across
     the WAN (host->gw->edge->bb->edge->gw->host = 6 links). *)
  let wan = Builders.dis_wan ~sites:2 ~hosts_per_site:2 () in
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~topo:wan.topo ~size_of:(fun s -> String.length s) ()
  in
  let local = ref 0 and remote = ref 0 in
  let h_local = wan.sites.(0).hosts.(1) in
  let h_remote = wan.sites.(1).hosts.(0) in
  Net.join net ~group:1 h_local;
  Net.join net ~group:1 h_remote;
  Net.set_handler net h_local (fun ~src:_ _ -> incr local);
  Net.set_handler net h_remote (fun ~src:_ _ -> incr remote);
  Net.multicast net ~ttl:2 ~src:wan.sites.(0).hosts.(0) ~group:1 "m";
  Engine.run engine;
  checki "local sibling reached" 1 !local;
  checki "remote member scoped out" 0 !remote

let net_leave () =
  let engine, net, _, hs = mk_lan 2 in
  let got = ref 0 in
  Net.set_handler net hs.(1) (fun ~src:_ _ -> incr got);
  Net.join net ~group:1 hs.(1);
  Net.multicast net ~src:hs.(0) ~group:1 "a";
  Engine.run engine;
  Net.leave net ~group:1 hs.(1);
  Net.multicast net ~src:hs.(0) ~group:1 "b";
  Engine.run engine;
  checki "one delivery" 1 !got

(* The transit observer sees every link offering: a multicast over the
   50 x 23 Figure-1 WAN crosses each of its 1250 tree links once (the
   group holds every host), and a cross-site unicast adds its 6 hops. *)
let net_link_transits_observed () =
  let wan = Builders.dis_wan ~sites:50 ~hosts_per_site:23 () in
  let engine = Engine.create () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of:String.length () in
  List.iter (fun h -> Net.join net ~group:1 h) (Builders.all_hosts wan);
  let transits = ref 0 in
  Net.on_link_transit net (fun _ _ -> incr transits);
  let primary = wan.sites.(0).Builders.hosts.(0) in
  Net.multicast net ~src:primary ~group:1 "data";
  Net.unicast net ~src:wan.sites.(1).Builders.hosts.(0) ~dst:primary "nack";
  Engine.run engine;
  checki "every transit reported" 1256 !transits;
  let offered = ref 0 in
  for v = 0 to Topo.node_count wan.topo - 1 do
    List.iter
      (fun l -> offered := !offered + Topo.packets_sent l)
      (Topo.links_from wan.topo v)
  done;
  checki "one report per link offering" !offered !transits

let net_rtt_symmetry () =
  let wan = Builders.dis_wan ~sites:2 ~hosts_per_site:2 () in
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~topo:wan.topo ~size_of:(fun s -> String.length s) ()
  in
  let a = wan.sites.(0).hosts.(0) and b = wan.sites.(1).hosts.(0) in
  checkf 1e-9 "symmetric" (Net.rtt net a b) (Net.rtt net b a);
  (* Paper §2.2.2: cross-site RTT about 80 ms, intra-site a few ms. *)
  let cross = Net.rtt net a b in
  checkb (Printf.sprintf "cross-site rtt %.1f ms" (cross *. 1e3)) true
    (cross > 0.06 && cross < 0.1);
  let intra = Net.rtt net a wan.sites.(0).hosts.(1) in
  checkb (Printf.sprintf "intra-site rtt %.1f ms" (intra *. 1e3)) true
    (intra > 0.002 && intra < 0.006)

(* ---- dis_wan builder ---- *)

let builder_shape () =
  let sites = 5 and hosts_per_site = 4 in
  let wan = Builders.dis_wan ~sites ~hosts_per_site () in
  checki "site count" sites (Array.length wan.sites);
  Array.iter
    (fun s -> checki "hosts per site" hosts_per_site (Array.length s.Builders.hosts))
    wan.sites;
  checki "all hosts" (sites * hosts_per_site) (List.length (Builders.all_hosts wan));
  checkb "host kind" true
    (Topo.kind wan.topo wan.sites.(0).hosts.(0) = Topo.Host);
  checkb "gateway kind" true
    (Topo.kind wan.topo wan.sites.(0).gateway = Topo.Router);
  Alcotest.check (Alcotest.option Alcotest.int) "site lookup" (Some 2)
    (Builders.site_of_host wan wan.sites.(2).hosts.(1));
  Alcotest.check (Alcotest.option Alcotest.int) "router is not in a site" None
    (Builders.site_of_host wan wan.backbone)

let prop_route_triangle =
  (* On random dis_wan topologies, routed distances obey symmetry (all
     links are duplex with equal delays) and the triangle inequality. *)
  QCheck.Test.make ~count:50 ~name:"route: symmetric + triangle inequality"
    QCheck.(pair (int_range 2 6) (int_range 1 4))
    (fun (sites, hosts_per_site) ->
      let wan = Builders.dis_wan ~sites ~hosts_per_site () in
      let route = Route.create wan.topo in
      let hosts = Array.of_list (Builders.all_hosts wan) in
      let d a b = Route.distance route ~src:a ~dst:b in
      Array.for_all
        (fun a ->
          Array.for_all
            (fun b ->
              Float.abs (d a b -. d b a) < 1e-12
              && Array.for_all
                   (fun c -> d a b <= d a c +. d c b +. 1e-12)
                   hosts)
            hosts)
        hosts)

(* Satellite: under membership churn the pruned-tree cache must (a)
   stop rebuilding once the (recurring) membership states have all been
   seen, (b) never rebuild the stable group's tree, and (c) stay within
   its configured capacity. *)
let net_mcast_cache_churn () =
  let wan = Builders.dis_wan ~sites:8 ~hosts_per_site:4 () in
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~topo:wan.topo ~size_of:String.length ()
  in
  let hosts = Array.of_list (Builders.all_hosts wan) in
  let n = Array.length hosts in
  let src = hosts.(0) in
  Array.iter (fun h -> Net.set_handler net h (fun ~src:_ _ -> ())) hosts;
  (* Group 7 is stable; groups 0..6 churn below. *)
  for i = 1 to n - 1 do
    Net.join net ~group:7 hosts.(i);
    Net.join net ~group:(i mod 7) hosts.(i)
  done;
  (* Warm every group's tree once. *)
  for g = 0 to 7 do
    Net.multicast net ~src ~group:g "warm"
  done;
  Engine.run engine;
  let warm_builds = Net.mcast_tree_builds net in
  let ops = 10_000 in
  for i = 0 to ops - 1 do
    let g = i mod 7 in
    let h = hosts.(1 + (i mod (n - 1))) in
    if Net.is_member net ~group:g h then Net.leave net ~group:g h
    else Net.join net ~group:g h;
    Net.multicast net ~src ~group:g "m";
    Net.multicast net ~src ~group:7 "s";
    Engine.run engine
  done;
  (* Each churning group cycles through a bounded set of membership
     states (every host toggles once per period), so after the first
     cycle every multicast hits the fingerprint cache: rebuilds stay
     near the number of distinct states, not the number of ops. *)
  let builds = Net.mcast_tree_builds net - warm_builds in
  let distinct_states = 7 * 2 * (n - 1) in
  checkb
    (Printf.sprintf "rebuilds bounded by distinct states (%d <= %d)" builds
       distinct_states)
    true
    (builds <= distinct_states);
  (* 2 multicasts per op; everything not rebuilt was a hit. *)
  checki "every multicast either hit or built"
    ((2 * ops) + 8)
    (Net.mcast_cache_hits net + Net.mcast_tree_builds net);
  checkb "stable group never rebuilds: hits dominate" true
    (Net.mcast_cache_hits net >= ops);
  checkb "cache within capacity" true
    (Net.mcast_cache_size net <= Net.mcast_cache_cap net)

(* The cap is enforced: a tiny cache under the same churn still works
   (delivery unaffected) but holds at most [cap] trees. *)
let net_mcast_cache_cap () =
  let wan = Builders.dis_wan ~sites:4 ~hosts_per_site:3 () in
  let engine = Engine.create () in
  let net =
    Net.create ~mcast_cache_size:3 ~engine ~topo:wan.topo
      ~size_of:String.length ()
  in
  let hosts = Array.of_list (Builders.all_hosts wan) in
  let n = Array.length hosts in
  let src = hosts.(0) in
  let delivered = ref 0 in
  Array.iter
    (fun h -> Net.set_handler net h (fun ~src:_ _ -> incr delivered))
    hosts;
  for i = 1 to n - 1 do
    Net.join net ~group:(i mod 5) hosts.(i)
  done;
  for i = 0 to 199 do
    let g = i mod 5 in
    let h = hosts.(1 + (i mod (n - 1))) in
    if Net.is_member net ~group:g h then Net.leave net ~group:g h
    else Net.join net ~group:g h;
    Net.multicast net ~src ~group:g "m";
    Engine.run engine
  done;
  checkb "cap enforced" true (Net.mcast_cache_size net <= 3);
  checkb "packets still delivered" true (!delivered > 0)

let prop_engine_fifo_ties =
  QCheck.Test.make ~name:"engine: equal-time events fire in posting order"
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 5))
    (fun slots ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i slot ->
          Engine.post_at e
            ~time:(float_of_int slot)
            (fun () -> fired := (slot, i) :: !fired))
        slots;
      Engine.run e;
      let expect =
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i s -> (s, i)) slots)
      in
      List.rev !fired = expect)

let prop_engine_random_schedules =
  QCheck.Test.make ~name:"engine: random schedules fire in time order"
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 100.))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> fired := Engine.now e :: !fired)))
        delays;
      Engine.run e;
      let out = List.rev !fired in
      out = List.sort Float.compare delays)

(* Re-keying a live timer in place must be indistinguishable from
   cancel+schedule.  Random programs of schedule/cancel/reschedule
   (later and earlier deadlines)/post/step/run ~until drive two engines:
   one re-keys with [Engine.reschedule], the reference cancels and
   schedules a fresh timer with the same callback and kind.  Posts may
   re-key a timer when they fire, as a packet arrival re-arms the MaxIT
   watchdog.  Delays are multiples of 1/4 s, so ties are common. *)

type eop =
  | E_schedule of int * int * int (* slot, delay (quarters), kind *)
  | E_cancel of int
  | E_rekey of int * int (* slot, delay *)
  | E_post of int * (int * int) option (* delay; re-key on firing *)
  | E_step
  | E_run_until of int (* quarters past now *)

let slots = 4

let pp_eop = function
  | E_schedule (i, d, k) -> Printf.sprintf "schedule(%d,%d,k%d)" i d k
  | E_cancel i -> Printf.sprintf "cancel(%d)" i
  | E_rekey (i, d) -> Printf.sprintf "rekey(%d,%d)" i d
  | E_post (d, None) -> Printf.sprintf "post(%d)" d
  | E_post (d, Some (i, d')) -> Printf.sprintf "post(%d,rekey(%d,%d))" d i d'
  | E_step -> "step"
  | E_run_until d -> Printf.sprintf "until(+%d)" d

let gen_eop =
  let open QCheck.Gen in
  let slot = int_bound (slots - 1) and delay = int_bound 12 in
  frequency
    [
      (3, map3 (fun i d k -> E_schedule (i, d, k)) slot delay (int_bound 3));
      (1, map (fun i -> E_cancel i) slot);
      (5, map2 (fun i d -> E_rekey (i, d)) slot delay);
      (3, map2 (fun d r -> E_post (d, r)) delay (opt (pair slot delay)));
      (2, return E_step);
      (2, map (fun d -> E_run_until d) (int_bound 8));
    ]

type observed =
  | Fired of int * float (* op index of the scheduling op, clock *)
  | Stepped of bool
  | Clock of float * int (* after run ~until: clock, pending *)

let drive_engine ~in_place ops =
  let e = Engine.create () in
  let log = ref [] in
  let quarters n = 0.25 *. float_of_int n in
  let timers = Array.make slots None in
  let rekey i d =
    match timers.(i) with
    | Some (h, kind, fn) when Engine.is_pending h ->
        if in_place then Engine.reschedule e h ~delay:(quarters d)
        else begin
          Engine.cancel e h;
          let h = Engine.schedule_kind e ~kind ~delay:(quarters d) fn in
          timers.(i) <- Some (h, kind, fn)
        end
    | _ -> ()
  in
  List.iteri
    (fun id op ->
      let fired () = log := Fired (id, Engine.now e) :: !log in
      match op with
      | E_schedule (i, d, kind) ->
          let h = Engine.schedule_kind e ~kind ~delay:(quarters d) fired in
          timers.(i) <- Some (h, kind, fired)
      | E_cancel i ->
          Option.iter (fun (h, _, _) -> Engine.cancel e h) timers.(i)
      | E_rekey (i, d) -> rekey i d
      | E_post (d, then_rekey) ->
          Engine.post_kind e ~kind:Engine.kind_packet ~delay:(quarters d)
            (fun () ->
              fired ();
              Option.iter (fun (i, d) -> rekey i d) then_rekey)
      | E_step -> log := Stepped (Engine.step e) :: !log
      | E_run_until d ->
          Engine.run ~until:(Engine.now e +. quarters d) e;
          log := Clock (Engine.now e, Engine.pending e) :: !log)
    ops;
  Engine.run e;
  ( List.rev !log,
    Engine.now e,
    Engine.events_processed e,
    List.init Engine.max_kinds (fun kind ->
        (Engine.kind_fired e ~kind, Engine.kind_wait e ~kind)) )

let prop_engine_reschedule_is_cancel_schedule =
  QCheck.Test.make ~count:500
    ~name:"engine: reschedule = cancel + schedule (order, clock, counters)"
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_eop ops))
       QCheck.Gen.(list_size (1 -- 60) gen_eop))
    (fun ops ->
      drive_engine ~in_place:true ops = drive_engine ~in_place:false ops)

(* The engine as a wall clock's timer queue.  [advance] moves the clock
   without firing, so events fall overdue; [run ~until] then fires them
   at the clock, in (time, seq) order, and the clock never moves back.
   A sorted-list model predicts every firing, its clock, [next_time] and
   [pending] under random interleavings of schedule, reschedule, cancel,
   bursts (which grow and then shrink the calendar, so it resizes while
   events are overdue), advance, run ~until (behind the clock too) and
   next_time.  Delays are multiples of 1/4 s, so ties are common. *)

type wop =
  | W_schedule of int * int (* slot, delay (quarters) *)
  | W_reschedule of int * int
  | W_cancel of int
  | W_burst of int * int (* count, spread of their delays (quarters) *)
  | W_advance of int
  | W_run_until of int (* quarters past now; negative is behind it *)
  | W_next_time

let pp_wop = function
  | W_schedule (i, d) -> Printf.sprintf "schedule(%d,%d)" i d
  | W_reschedule (i, d) -> Printf.sprintf "reschedule(%d,%d)" i d
  | W_cancel i -> Printf.sprintf "cancel(%d)" i
  | W_burst (n, s) -> Printf.sprintf "burst(%d,%d)" n s
  | W_advance d -> Printf.sprintf "advance(+%d)" d
  | W_run_until d -> Printf.sprintf "until(%+d)" d
  | W_next_time -> "next_time"

let gen_wop =
  let open QCheck.Gen in
  let slot = int_bound (slots - 1) and delay = int_bound 12 in
  frequency
    [
      (3, map2 (fun i d -> W_schedule (i, d)) slot delay);
      (3, map2 (fun i d -> W_reschedule (i, d)) slot delay);
      (1, map (fun i -> W_cancel i) slot);
      (1, map2 (fun n s -> W_burst (n, s)) (int_range 10 80) (int_range 1 40));
      (3, map (fun d -> W_advance d) (int_bound 16));
      (2, map (fun d -> W_run_until d) (int_range (-4) 8));
      (2, return W_next_time);
    ]

let wall_clock_matches_model ops =
  let e = Engine.create () in
  let quarters n = 0.25 *. float_of_int n in
  (* The model: pending (time, seq, id), sorted; its own clock. *)
  let model = ref [] and clock = ref 0. and seq = ref 0 and ids = ref 0 in
  let fired = ref [] and last = ref 0. in
  let expect what b = if not b then QCheck.Test.fail_reportf "%s" what in
  let watch_clock () =
    expect "clock moved back" (Engine.now e >= !last);
    last := Engine.now e
  in
  let enqueue time id =
    let key = (time, !seq, id) in
    incr seq;
    model := List.merge compare !model [ key ]
  in
  let drop id = model := List.filter (fun (_, _, i) -> i <> id) !model in
  let schedule d =
    let id = !ids in
    incr ids;
    let h =
      Engine.schedule_kind e ~kind:Engine.kind_timer ~delay:(quarters d)
        (fun () ->
          watch_clock ();
          fired := (id, Engine.now e) :: !fired)
    in
    enqueue (!clock +. quarters d) id;
    (h, id)
  in
  (* Fire the model's events due by [until], each at max(clock, time). *)
  let model_run until =
    let due, rest = List.partition (fun (t, _, _) -> t <= until) !model in
    model := rest;
    List.map
      (fun (t, _, id) ->
        clock := Float.max !clock t;
        (id, !clock))
      due
  in
  let check_fired what expected =
    expect what (List.rev !fired = expected);
    fired := []
  in
  let timers = Array.make slots None in
  List.iter
    (fun op ->
      (match op with
      | W_schedule (i, d) -> timers.(i) <- Some (schedule d)
      | W_reschedule (i, d) -> (
          match timers.(i) with
          | Some (h, id) when Engine.is_pending h ->
              Engine.reschedule e h ~delay:(quarters d);
              drop id;
              enqueue (!clock +. quarters d) id
          | _ -> ())
      | W_cancel i ->
          Option.iter
            (fun (h, id) ->
              Engine.cancel e h;
              drop id)
            timers.(i)
      | W_burst (n, spread) ->
          for k = 0 to n - 1 do
            ignore (schedule (k * 7 mod (spread + 1)))
          done
      | W_advance d ->
          Engine.advance e (Engine.now e +. quarters d);
          clock := !clock +. quarters d
      | W_run_until d ->
          let until = Engine.now e +. quarters d in
          Engine.run ~until e;
          let expected = model_run until in
          clock := Float.max !clock until;
          check_fired "run ~until fired out of order" expected
      | W_next_time ->
          let want =
            match !model with (t, _, _) :: _ -> t | [] -> infinity
          in
          expect "next_time" (Engine.next_time e = want));
      watch_clock ();
      expect "clock" (Engine.now e = !clock);
      expect "pending" (Engine.pending e = List.length !model))
    ops;
  Engine.run e;
  check_fired "final drain fired out of order" (model_run infinity);
  true

let prop_engine_wall_clock =
  QCheck.Test.make ~count:500
    ~name:"engine: advance/overdue firing matches a sorted-list model"
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_wop ops))
       QCheck.Gen.(list_size (1 -- 60) gen_wop))
    wall_clock_matches_model

(* A timer moved from before [until] to after it neither fires, counts
   nor drags the clock past [until]; moved back, it fires once. *)
let engine_reschedule_past_until () =
  let e = Engine.create () in
  let fired = ref [] in
  let h =
    Engine.schedule_kind e ~kind:Engine.kind_timer ~delay:1.0 (fun () ->
        fired := Engine.now e :: !fired)
  in
  Engine.reschedule e h ~delay:5.0;
  Engine.run ~until:2.0 e;
  checkf 1e-12 "clock stops at until" 2.0 (Engine.now e);
  checki "still pending" 1 (Engine.pending e);
  checki "nothing processed" 0 (Engine.events_processed e);
  checki "nothing counted" 0 (Engine.kind_fired e ~kind:Engine.kind_timer);
  Engine.reschedule e h ~delay:0.5;
  Engine.run e;
  Alcotest.(check (list (float 1e-12)))
    "fires once, at the last key" [ 2.5 ] !fired;
  checkf 1e-12 "sojourn from the last re-key" 0.5
    (Engine.kind_wait e ~kind:Engine.kind_timer)

(* ---- fault plane ---- *)

let fault_state_epoch () =
  let topo = Topo.create () in
  let a = Topo.add_node topo Host in
  let b = Topo.add_node topo Host in
  let ab = Topo.add_duplex topo ~delay:0.001 a b in
  let e0 = Topo.state_epoch topo in
  checkb "nodes start up" true (Topo.node_up topo a);
  checkb "links start up" true (Topo.link_up (fst ab));
  Topo.set_node_up topo a false;
  checki "node flip bumps epoch" (e0 + 1) (Topo.state_epoch topo);
  Topo.set_node_up topo a false;
  checki "idempotent flip does not bump" (e0 + 1) (Topo.state_epoch topo);
  Topo.set_link_up topo (fst ab) false;
  checki "link flip bumps epoch" (e0 + 2) (Topo.state_epoch topo);
  Topo.set_node_up topo a true;
  Topo.set_link_up topo (fst ab) true;
  checki "restores bump too" (e0 + 4) (Topo.state_epoch topo)

let fault_down_node_drops_delivery () =
  let engine, net, _, hs = mk_lan 3 in
  let topo = Net.topo net in
  let got = ref 0 in
  Net.set_handler net hs.(1) (fun ~src:_ _ -> incr got);
  Topo.set_node_up topo hs.(1) false;
  Net.unicast net ~src:hs.(0) ~dst:hs.(1) "x";
  Engine.run engine;
  checki "down host hears nothing" 0 !got;
  Topo.set_node_up topo hs.(1) true;
  Net.unicast net ~src:hs.(0) ~dst:hs.(1) "y";
  Engine.run engine;
  checki "delivered after restart" 1 !got

let fault_down_link_counted () =
  (* Fresh routes and trees never include a down link, so a down-link drop
     accounts for packets already in flight: the multicast tree is
     captured at launch, and a link that dies while the packet crosses
     the LAN eats it at the switch. *)
  let engine, net, switch, hs = mk_lan 3 in
  let topo = Net.topo net in
  let got = ref 0 in
  Net.join net ~group:1 hs.(1);
  Net.set_handler net hs.(1) (fun ~src:_ _ -> incr got);
  let link =
    match Topo.find_link topo ~src:switch ~dst:hs.(1) with
    | Some l -> l
    | None -> Alcotest.fail "no downlink"
  in
  ignore
    (Engine.schedule engine ~delay:0.0001 (fun () ->
         Topo.set_link_up topo link false));
  Net.multicast net ~src:hs.(0) ~group:1 "x";
  Engine.run engine;
  checki "packet eaten in flight" 0 !got;
  checki "drop attributed to the dead link" 1 (Topo.drops_down link);
  checki "not counted as loss" 0 (Topo.drops_loss link)

let fault_route_around_down_link () =
  (* a --1ms-- b --1ms-- c with a direct a --5ms-- c fallback: routing
     prefers b until the a-b link dies, and must recover it on heal. *)
  let topo = Topo.create () in
  let a = Topo.add_node topo Host in
  let b = Topo.add_node topo Router in
  let c = Topo.add_node topo Host in
  let ab, _ = Topo.add_duplex topo ~delay:0.001 a b in
  let _ = Topo.add_duplex topo ~delay:0.001 b c in
  let _ = Topo.add_duplex topo ~delay:0.005 a c in
  let route = Route.create topo in
  checkf 1e-9 "via b" 0.002 (Route.distance route ~src:a ~dst:c);
  Topo.set_link_up topo ab false;
  checkf 1e-9 "around the dead link" 0.005
    (Route.distance route ~src:a ~dst:c);
  Topo.set_link_up topo ab true;
  checkf 1e-9 "healed" 0.002 (Route.distance route ~src:a ~dst:c);
  (* Down routers disappear from paths entirely. *)
  Topo.set_node_up topo b false;
  checkf 1e-9 "around the dead router" 0.005
    (Route.distance route ~src:a ~dst:c)

let fault_multicast_tree_invalidation () =
  (* Multicast trees are cached per (membership, topology-state) epoch:
     severing a site's tail must stop deliveries there without touching
     the other site, and healing must restore them. *)
  let wan = Builders.dis_wan ~sites:2 ~hosts_per_site:2 () in
  let engine = Engine.create () in
  let net = Net.create ~engine ~topo:wan.topo ~size_of:String.length () in
  let counts = Hashtbl.create 8 in
  let members =
    [ wan.sites.(0).Builders.hosts.(1); wan.sites.(1).Builders.hosts.(1) ]
  in
  List.iter
    (fun h ->
      Hashtbl.replace counts h 0;
      Net.join net ~group:1 h;
      Net.set_handler net h (fun ~src:_ _ ->
          Hashtbl.replace counts h (1 + Hashtbl.find counts h)))
    members;
  let src = wan.sites.(0).Builders.hosts.(0) in
  let local = List.nth members 0 and remote = List.nth members 1 in
  Net.multicast net ~src ~group:1 "a";
  Engine.run engine;
  checki "both sites reached" 1 (Hashtbl.find counts remote);
  let site1 = wan.sites.(1) in
  Topo.set_link_up wan.topo site1.Builders.tail_up false;
  Topo.set_link_up wan.topo site1.Builders.tail_down false;
  Net.multicast net ~src ~group:1 "b";
  Engine.run engine;
  checki "partitioned site unreachable" 1 (Hashtbl.find counts remote);
  checki "local site unaffected" 2 (Hashtbl.find counts local);
  Topo.set_link_up wan.topo site1.Builders.tail_up true;
  Topo.set_link_up wan.topo site1.Builders.tail_down true;
  Net.multicast net ~src ~group:1 "c";
  Engine.run engine;
  checki "healed site reachable again" 2 (Hashtbl.find counts remote)

module Fault = Lbrm_sim.Fault

let fault_apply_schedule () =
  let topo = Topo.create () in
  let a = Topo.add_node topo Host in
  let b = Topo.add_node topo Host in
  let ab, _ = Topo.add_duplex topo ~delay:0.001 a b in
  let engine = Engine.create () in
  let log = ref [] in
  Fault.apply ~engine ~topo
    ~on_crash:(fun n -> log := ("crash", n, Engine.now engine) :: !log)
    ~on_restart:(fun n -> log := ("restart", n, Engine.now engine) :: !log)
    (Fault.outage ~at:1.0 ~downtime:2.0 a
    @ [ Fault.link_down ~at:0.5 ab; Fault.link_up ~at:1.5 ab ]);
  ignore
    (Engine.schedule engine ~delay:1.2 (fun () ->
         checkb "down mid-outage" false (Topo.node_up topo a);
         checkb "link down mid-window" false (Topo.link_up ab)));
  Engine.run engine;
  checkb "back up after restart" true (Topo.node_up topo a);
  checkb "link back up" true (Topo.link_up ab);
  match List.rev !log with
  | [ ("crash", n1, t1); ("restart", n2, t2) ] ->
      checki "crash node" a n1;
      checki "restart node" a n2;
      checkf 1e-9 "crash time" 1.0 t1;
      checkf 1e-9 "restart time" 3.0 t2
  | _ -> Alcotest.fail "expected exactly one crash and one restart hook"

let fault_random_schedule_well_formed () =
  let wan = Builders.dis_wan ~sites:3 ~hosts_per_site:2 () in
  let rng = Rng.create ~seed:9 in
  let hosts = Builders.all_hosts wan in
  let horizon = 20. in
  let events =
    Fault.random_schedule ~rng ~wan ~hosts ~sites:[ 1; 2 ] ~crashes:4
      ~partitions:3 ~min_down:1. ~max_down:3. ~horizon ()
  in
  let crashes = ref [] and restarts = ref [] in
  List.iter
    (fun { Fault.at; what } ->
      checkb "within horizon" true (at >= 0. && at <= horizon);
      match what with
      | Fault.Crash n -> crashes := (n, at) :: !crashes
      | Fault.Restart n -> restarts := (n, at) :: !restarts
      | Fault.Link_down _ | Fault.Link_up _ -> ())
    events;
  checki "every crash has a restart" (List.length !crashes)
    (List.length !restarts);
  List.iter
    (fun (n, t_crash) ->
      checkb "restart strictly after its crash" true
        (List.exists (fun (m, t) -> m = n && t > t_crash) !restarts))
    !crashes;
  (* Same seed, same schedule. *)
  let events' =
    Fault.random_schedule ~rng:(Rng.create ~seed:9) ~wan ~hosts
      ~sites:[ 1; 2 ] ~crashes:4 ~partitions:3 ~min_down:1. ~max_down:3.
      ~horizon ()
  in
  checkb "deterministic in the seed" true
    (List.for_all2
       (fun (e : Fault.event) (e' : Fault.event) ->
         e.at = e'.at
         &&
         match (e.what, e'.what) with
         | Fault.Crash a, Fault.Crash b | Fault.Restart a, Fault.Restart b ->
             a = b
         | Fault.Link_down l, Fault.Link_down l'
         | Fault.Link_up l, Fault.Link_up l' ->
             l == l'
         | _ -> false)
       events events')

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick engine_ordering;
          Alcotest.test_case "cancel" `Quick engine_cancel;
          Alcotest.test_case "run until" `Quick engine_run_until;
          Alcotest.test_case "every ~until last fire" `Quick
            engine_every_until_last_fire;
          Alcotest.test_case "every ~until boundary tick" `Quick
            engine_every_until_boundary;
          Alcotest.test_case "run until + late schedule" `Quick
            engine_run_until_reinsert;
          Alcotest.test_case "burst + cancel" `Quick engine_burst_cancel;
          Alcotest.test_case "nested schedule" `Quick engine_nested_schedule;
          qtest prop_engine_random_schedules;
          qtest prop_engine_fifo_ties;
          Alcotest.test_case "reschedule past until" `Quick
            engine_reschedule_past_until;
          qtest prop_engine_reschedule_is_cancel_schedule;
          qtest prop_engine_wall_clock;
        ] );
      ( "route-properties",
        [ qtest prop_route_triangle; qtest prop_route_delegation_equivalence ] );
      ( "loss",
        [
          Alcotest.test_case "bernoulli rate" `Slow loss_bernoulli_rate;
          Alcotest.test_case "burst windows" `Quick loss_burst_windows;
          Alcotest.test_case "gilbert burstiness" `Slow loss_gilbert_burstiness;
          Alcotest.test_case "combine" `Quick loss_combine;
        ] );
      ( "link",
        [
          Alcotest.test_case "serialization + queueing" `Quick
            link_serialization;
          Alcotest.test_case "queue overflow" `Quick link_queue_overflow;
          Alcotest.test_case "infinite bandwidth" `Quick link_infinite_bandwidth;
        ] );
      ( "route",
        [
          Alcotest.test_case "shortest path" `Quick routing_shortest_path;
          Alcotest.test_case "unreachable" `Quick routing_unreachable;
          Alcotest.test_case "topology growth invalidates tables" `Quick
            routing_topology_growth;
          Alcotest.test_case "dis_wan with a gateway and a tail down" `Quick
            routing_dis_wan_faults;
          Alcotest.test_case "tables for routers and roots only" `Quick
            routing_tables_for_routers_only;
        ] );
      ( "net",
        [
          Alcotest.test_case "unicast" `Quick net_unicast;
          Alcotest.test_case "loopback" `Quick net_loopback;
          Alcotest.test_case "multicast membership" `Quick
            net_multicast_membership;
          Alcotest.test_case "sender excluded" `Quick
            net_multicast_sender_excluded;
          Alcotest.test_case "shared link crossed once" `Quick
            net_multicast_shared_link_once;
          Alcotest.test_case "TTL scoping" `Quick net_ttl_scoping;
          Alcotest.test_case "leave" `Quick net_leave;
          Alcotest.test_case "RTTs match the paper's scenario" `Quick
            net_rtt_symmetry;
          Alcotest.test_case "every link transit observed" `Quick
            net_link_transits_observed;
          Alcotest.test_case "mcast cache bounded under churn" `Slow
            net_mcast_cache_churn;
          Alcotest.test_case "mcast cache cap enforced" `Quick
            net_mcast_cache_cap;
        ] );
      ("builders", [ Alcotest.test_case "dis_wan shape" `Quick builder_shape ]);
      ( "faults",
        [
          Alcotest.test_case "up/down flips bump the state epoch" `Quick
            fault_state_epoch;
          Alcotest.test_case "down host drops deliveries" `Quick
            fault_down_node_drops_delivery;
          Alcotest.test_case "down link drops are attributed" `Quick
            fault_down_link_counted;
          Alcotest.test_case "routing avoids down elements" `Quick
            fault_route_around_down_link;
          Alcotest.test_case "multicast tree invalidation" `Quick
            fault_multicast_tree_invalidation;
          Alcotest.test_case "fault schedule applies through the engine"
            `Quick fault_apply_schedule;
          Alcotest.test_case "random schedule well-formed + deterministic"
            `Quick fault_random_schedule_well_formed;
        ] );
    ]
