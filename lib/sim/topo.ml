type node_id = int
type kind = Host | Router

type node = {
  kind : kind;
  mutable out : link list;
  mutable up : bool;
}

and link = {
  src : node_id;
  dst : node_id;
  fl : link_floats;
  queue_limit : int;
  mutable loss : Loss.t;
  mutable link_up : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable bytes : int;
  mutable lost : int;
  mutable queue_drops : int;
  mutable down_drops : int;
}

(* All-float record: stored flat (unboxed), so the transmit hot path
   reads one contiguous block and updating [busy_until] or [arrival]
   allocates nothing. *)
and link_floats = {
  bandwidth : float; (* bits/s; 0 = infinite *)
  delay : float;
  mutable jitter : float; (* mean of exponential extra delay; 0 = none *)
  mutable busy_until : float;
  mutable arrival : float; (* far-end arrival of the last accepted packet *)
}

(* [state_epoch] counts up/down flips of nodes and links and every node
   or link added.  Consumers that cache anything derived from
   reachability (route tables, pruned multicast trees) compare their
   build epoch against it and rebuild when it has moved — the same
   mechanism the per-group membership epochs use. *)
type t = { mutable nodes : node array; mutable n : int; mutable state_epoch : int }

let create () = { nodes = [||]; n = 0; state_epoch = 0 }

let add_node t kind =
  let id = t.n in
  let node = { kind; out = []; up = true } in
  if Array.length t.nodes = t.n then begin
    let nodes = Array.make (max 8 (2 * t.n)) node in
    Array.blit t.nodes 0 nodes 0 t.n;
    t.nodes <- nodes
  end;
  t.nodes.(t.n) <- node;
  t.n <- t.n + 1;
  t.state_epoch <- t.state_epoch + 1;
  id

let node_count t = t.n
let kind t id = t.nodes.(id).kind
let state_epoch t = t.state_epoch
let node_up t id = t.nodes.(id).up

let set_node_up t id up =
  let node = t.nodes.(id) in
  if node.up <> up then begin
    node.up <- up;
    t.state_epoch <- t.state_epoch + 1
  end

let add_link t ?(bandwidth = 0.) ?(delay = 0.001) ?(jitter = 0.)
    ?(queue = 1000) ?(loss = Loss.none) ~src ~dst () =
  assert (src < t.n && dst < t.n && src <> dst);
  let link =
    {
      src;
      dst;
      fl = { bandwidth; delay; jitter; busy_until = 0.; arrival = 0. };
      queue_limit = queue;
      loss;
      link_up = true;
      sent = 0;
      delivered = 0;
      bytes = 0;
      lost = 0;
      queue_drops = 0;
      down_drops = 0;
    }
  in
  t.nodes.(src).out <- link :: t.nodes.(src).out;
  t.state_epoch <- t.state_epoch + 1;
  link

let add_duplex t ?bandwidth ?delay ?jitter ?queue ?loss a b =
  let mk ~src ~dst =
    let loss = Option.map (fun f -> f ()) loss in
    add_link t ?bandwidth ?delay ?jitter ?queue ?loss ~src ~dst ()
  in
  (mk ~src:a ~dst:b, mk ~src:b ~dst:a)

let links_from t id = t.nodes.(id).out

let find_link t ~src ~dst =
  List.find_opt (fun l -> l.dst = dst) t.nodes.(src).out

let link_src l = l.src
let link_dst l = l.dst
let link_delay l = l.fl.delay
let set_link_loss l loss = l.loss <- loss
let set_link_jitter l jitter = l.fl.jitter <- jitter
let link_up l = l.link_up

let set_link_up t l up =
  if l.link_up <> up then begin
    l.link_up <- up;
    t.state_epoch <- t.state_epoch + 1
  end

let[@lint.hot] transmit l ~rng ~now ~size =
  l.sent <- l.sent + 1;
  if not l.link_up then begin
    l.down_drops <- l.down_drops + 1;
    false
  end
  else if Loss.drops l.loss ~rng ~now then begin
    l.lost <- l.lost + 1;
    false
  end
  else begin
    let fl = l.fl in
    let tx_time =
      if fl.bandwidth <= 0. then 0.
      else float_of_int (8 * size) /. fl.bandwidth
    in
    (* Queue occupancy approximated by outstanding serialization time. *)
    let backlog = Float.max 0. (fl.busy_until -. now) in
    let queued_pkts =
      if tx_time <= 0. then 0 else int_of_float (backlog /. tx_time)
    in
    if queued_pkts >= l.queue_limit then begin
      l.queue_drops <- l.queue_drops + 1;
      false
    end
    else begin
      let start = Float.max now fl.busy_until in
      fl.busy_until <- start +. tx_time;
      l.delivered <- l.delivered + 1;
      l.bytes <- l.bytes + size;
      (* Exponential jitter can reorder packets relative to earlier
         traffic on the same link, as IP permits. *)
      let extra =
        if fl.jitter > 0. then Lbrm_util.Rng.exponential rng ~mean:fl.jitter
        else 0.
      in
      fl.arrival <- fl.busy_until +. fl.delay +. extra;
      true
    end
  end

let arrival l = l.fl.arrival

let packets_sent l = l.sent
let packets_delivered l = l.delivered
let bytes_delivered l = l.bytes
let drops_loss l = l.lost
let drops_queue l = l.queue_drops
let drops_down l = l.down_drops
