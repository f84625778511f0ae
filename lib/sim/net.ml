type 'msg handler = src:Topo.node_id -> 'msg -> unit

(* Multicast state is tracked per group:

   - [g_epoch] counts *actual* membership changes of this group, so a
     join/leave in one group never invalidates another group's cached
     trees or bitmap.
   - [g_fp] is an incrementally maintained fingerprint of the current
     membership (XOR of per-node integer mixes, so join/leave are O(1)
     updates).  Cached pruned trees are keyed by (source, fingerprint)
     and verified against a membership-mask snapshot, so a membership
     state that *recurs* — the common case under churn, where the same
     few members flap — finds its old tree instead of rebuilding
     (previously every epoch bump invalidated the single cached tree,
     making tree_builds track the churn rate one-for-one).
   - [mask] is a byte-per-node membership bitmap rebuilt lazily when
     [mask_epoch] falls behind, making the per-delivery "is the
     arriving node a member?" check an array load instead of a hash
     lookup. *)
type group = {
  members : (Topo.node_id, unit) Hashtbl.t;
  mutable g_epoch : int;
  mutable g_fp : int; (* XOR of mixed member ids *)
  (* source -> fingerprint -> cached tree *)
  trees : (Topo.node_id, (int, cached_tree) Hashtbl.t) Hashtbl.t;
  mutable mask : Bytes.t;
  mutable mask_epoch : int; (* epoch [mask] was built at; -1 = never *)
}

and cached_tree = {
  c_state : int; (* topology state epoch at build *)
  c_members : Bytes.t; (* membership mask snapshot (collision guard) *)
  tree : Topo.link list array;
  mutable c_used : int; (* LRU stamp *)
}

type 'msg t = {
  engine : Engine.t;
  topo : Topo.t;
  route : Route.t;
  size_of : 'msg -> int;
  mutable handlers : 'msg handler array; (* noop-filled: no option deref *)
  groups : (int, group) Hashtbl.t;
  mutable observers : (Topo.link -> 'msg -> unit) list;
  mutable tree_builds : int;
  mutable cache_hits : int;
  mutable cache_entries : int;
  cache_cap : int;
  mutable cache_tick : int;
  rng : Lbrm_util.Rng.t;
}

let loopback_delay = 50e-6

let default_cache_size = 512

let noop_handler ~src:_ _ = ()

(* Avalanching integer mix (splitmix-style finalizer) so that XORing
   member ids never cancels structurally related node numbers. *)
let mix_node x =
  let x = x * 0x9E3779B9 in
  let x = x lxor (x lsr 16) in
  let x = x * 0x85EBCA6B in
  (x lxor (x lsr 13)) land max_int

let create ?(mcast_cache_size = default_cache_size) ~engine ~topo ~size_of () =
  {
    engine;
    topo;
    route = Route.create topo;
    size_of;
    handlers = Array.make (Topo.node_count topo) noop_handler;
    groups = Hashtbl.create 8;
    observers = [];
    tree_builds = 0;
    cache_hits = 0;
    cache_entries = 0;
    cache_cap = Stdlib.max 1 mcast_cache_size;
    cache_tick = 0;
    rng = Lbrm_util.Rng.split (Engine.rng engine);
  }

let engine t = t.engine
let topo t = t.topo
let route t = t.route

let ensure_capacity t =
  let n = Topo.node_count t.topo in
  if Array.length t.handlers < n then begin
    let handlers = Array.make n noop_handler in
    Array.blit t.handlers 0 handlers 0 (Array.length t.handlers);
    t.handlers <- handlers
  end

let set_handler t node h =
  ensure_capacity t;
  t.handlers.(node) <- h

let group_rec t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g
  | None ->
      let g =
        {
          members = Hashtbl.create 16;
          g_epoch = 0;
          g_fp = 0;
          trees = Hashtbl.create 4;
          mask = Bytes.empty;
          mask_epoch = -1;
        }
      in
      Hashtbl.add t.groups group g;
      g

(* Epochs advance only on actual membership change, so a redundant
   join/leave costs no tree rebuilds. *)
let join t ~group node =
  let g = group_rec t group in
  if not (Hashtbl.mem g.members node) then begin
    Hashtbl.add g.members node ();
    g.g_epoch <- g.g_epoch + 1;
    g.g_fp <- g.g_fp lxor mix_node node
  end

let leave t ~group node =
  let g = group_rec t group in
  if Hashtbl.mem g.members node then begin
    Hashtbl.remove g.members node;
    g.g_epoch <- g.g_epoch + 1;
    g.g_fp <- g.g_fp lxor mix_node node
  end

let members t ~group =
  Hashtbl.fold (fun n () acc -> n :: acc) (group_rec t group).members []
  |> List.sort Int.compare

let is_member t ~group node = Hashtbl.mem (group_rec t group).members node

(* Byte-per-node membership bitmap, rebuilt only when the group's
   membership actually changed since the last build. *)
let refresh_mask t g =
  let n = Topo.node_count t.topo in
  if Bytes.length g.mask < n then g.mask <- Bytes.make n '\000'
  else Bytes.fill g.mask 0 n '\000';
  Hashtbl.iter (fun node () -> Bytes.unsafe_set g.mask node '\001') g.members;
  g.mask_epoch <- g.g_epoch

let member_mask t g node =
  if g.mask_epoch <> g.g_epoch || Bytes.length g.mask < Topo.node_count t.topo
  then refresh_mask t g;
  Bytes.unsafe_get g.mask node <> '\000'

let current_mask t g =
  if g.mask_epoch <> g.g_epoch || Bytes.length g.mask < Topo.node_count t.topo
  then refresh_mask t g;
  g.mask

let deliver t ~src ~dst msg =
  (* A crashed host's handler goes quiet: packets addressed to it are
     dropped on arrival, including ones already in flight at crash
     time. *)
  if Topo.node_up t.topo dst then (Array.unsafe_get t.handlers dst) ~src msg

(* Matching on the list first keeps the unobserved hop from building
   the iteration closure. *)
let observe t link msg =
  match t.observers with
  | [] -> ()
  | observers -> List.iter (fun f -> f link msg) observers

let on_link_transit t f = t.observers <- f :: t.observers

(* An in-flight unicast packet.  One mutable record and one arrival
   closure serve the whole path: each hop's transmit decision is made
   at send time, the record is advanced, and the same closure is
   re-posted for the next arrival — no per-hop closure chain. *)
type flight = { mutable f_node : Topo.node_id; mutable f_ttl : int }

let unicast t ?(ttl = 64) ~src ~dst msg =
  ensure_capacity t;
  if src = dst then
    Engine.post_kind t.engine ~kind:Engine.kind_packet ~delay:loopback_delay (fun () ->
        deliver t ~src ~dst msg)
  else begin
    let fl = { f_node = src; f_ttl = ttl } in
    let rec arrive () =
      if fl.f_node = dst then deliver t ~src ~dst msg
      else if fl.f_ttl > 0 && Topo.node_up t.topo fl.f_node then
        (* A node that crashed while this packet was in flight towards
           it silently eats it rather than forwarding. *)
        match Route.next_hop t.route ~src:fl.f_node ~dst with
        | None -> ()
        | Some link -> (
            observe t link msg;
            if
              Topo.transmit link ~rng:t.rng ~now:(Engine.now t.engine)
                ~size:(t.size_of msg)
            then begin
              fl.f_node <- Topo.link_dst link;
              fl.f_ttl <- fl.f_ttl - 1;
              Engine.post_at_kind t.engine ~kind:Engine.kind_packet
                ~time:(Topo.arrival link) arrive
            end)
    in
    arrive ()
  end

(* Does the first-[n]-bytes membership snapshot match the live mask?
   The snapshot is the collision guard behind the fingerprint key: two
   member sets XOR-hashing alike never share a tree. *)
let mask_matches snapshot mask n =
  Bytes.length snapshot = n
  && Bytes.length mask >= n
  &&
  let rec go i =
    i >= n
    || (Bytes.unsafe_get snapshot i = Bytes.unsafe_get mask i && go (i + 1))
  in
  go 0

(* Drop the least-recently-used cached tree across all groups.  The
   scan is O(cached entries), entries are capped, and eviction only
   runs when an insertion crosses the cap — churny workloads that fit
   the cap never pay it. *)
let evict_lru t =
  let best = ref None in
  Hashtbl.iter
    (fun _ g ->
      Hashtbl.iter
        (fun src per ->
          Hashtbl.iter
            (fun fp ct ->
              match !best with
              | Some (u, _, _, _) when u <= ct.c_used -> ()
              | _ -> best := Some (ct.c_used, g, src, fp))
            per)
        g.trees)
    t.groups;
  match !best with
  | None -> ()
  | Some (_, g, src, fp) -> (
      match Hashtbl.find_opt g.trees src with
      | Some per ->
          Hashtbl.remove per fp;
          t.cache_entries <- t.cache_entries - 1;
          if Hashtbl.length per = 0 then Hashtbl.remove g.trees src
      | None -> ())

(* Pruned multicast tree: for each node, the SPT child links that lead
   to at least one group member.  Cached per (group, source) keyed by
   the membership fingerprint and verified against a mask snapshot, so
   recurring membership states (flapping joins/leaves) hit instead of
   rebuilding; a bounded LRU keeps total entries under the per-net
   cap. *)
let pruned_tree t g ~src =
  let n = Topo.node_count t.topo in
  let state = Topo.state_epoch t.topo in
  let mask = current_mask t g in
  let per =
    match Hashtbl.find_opt g.trees src with
    | Some per -> per
    | None ->
        let per = Hashtbl.create 4 in
        Hashtbl.add g.trees src per;
        per
  in
  t.cache_tick <- t.cache_tick + 1;
  match Hashtbl.find_opt per g.g_fp with
  | Some ct
    when ct.c_state = state && Array.length ct.tree >= n
         && mask_matches ct.c_members mask n ->
      ct.c_used <- t.cache_tick;
      t.cache_hits <- t.cache_hits + 1;
      ct.tree
  | stale ->
      let pruned = Array.make n [] in
      (* Post-order: does the subtree rooted at [node] contain a member?
         The SPT already excludes down links and down nodes, so a tree
         built at this state epoch never routes through failed
         elements. *)
      let rec mark node =
        let here = Hashtbl.mem g.members node in
        let keep =
          List.filter
            (fun link -> mark (Topo.link_dst link))
            (Route.spt_children t.route ~root:src ~node)
        in
        pruned.(node) <- keep;
        here || (match keep with [] -> false | _ :: _ -> true)
      in
      ignore (mark src);
      Hashtbl.replace per g.g_fp
        {
          c_state = state;
          c_members = Bytes.sub mask 0 n;
          tree = pruned;
          c_used = t.cache_tick;
        };
      (match stale with
      | Some _ -> () (* replaced in place: entry count unchanged *)
      | None ->
          t.cache_entries <- t.cache_entries + 1;
          while t.cache_entries > t.cache_cap do
            evict_lru t
          done);
      t.tree_builds <- t.tree_builds + 1;
      pruned

let multicast t ?(ttl = 64) ~src ~group msg =
  ensure_capacity t;
  let g = group_rec t group in
  let tree = pruned_tree t g ~src in
  let size = t.size_of msg in
  (* Leaf fan-out batching: consecutive leaf children whose transmit
     decisions land at the same instant (the common case — parallel
     identical LAN links off one router) would each be their own
     engine event with consecutive sequence numbers.  Merging such a
     run into one arrival event that delivers to all of them is
     observably identical — per-link decisions are still drawn in link
     order at send time, and the run is flushed before anything else
     is enqueued, so same-instant FIFO order is untouched — but it
     turns ~N leaf events per router into one. *)
  let run = ref [||] in
  let run_len = ref 0 in
  (* A one-slot float array holds its float flat: updating it boxes
     nothing, where a [float ref] would box every new time. *)
  let run_time = [| neg_infinity |] in
  let flush () =
    let n = !run_len in
    if n > 0 then begin
      let children = Array.sub !run 0 n in
      run_len := 0;
      Engine.post_at_kind t.engine ~kind:Engine.kind_packet ~time:run_time.(0) (fun () ->
          Array.iter
            (fun c ->
              if c <> src && member_mask t g c then deliver t ~src ~dst:c msg)
            children)
    end
  in
  (* Takes the link, not its arrival time: a float argument would be
     boxed at every call, where reading [Topo.arrival] here is a flat
     load once the compiler inlines it. *)
  let push_leaf link =
    let a = Topo.arrival link in
    if !run_len > 0 && a <> run_time.(0) then flush ();
    if !run_len = Array.length !run then begin
      let bigger = Array.make (Stdlib.max 8 (2 * Array.length !run)) 0 in
      Array.blit !run 0 bigger 0 !run_len;
      run := bigger
    end;
    run_time.(0) <- a;
    !run.(!run_len) <- Topo.link_dst link;
    incr run_len
  in
  (* One flight per concurrently in-flight copy of the packet: a linear
     router chain advances its flight in place and re-posts the same
     arrival closure; only branch points spawn new flights. *)
  let rec launch fl arrive link =
    observe t link msg;
    if Topo.transmit link ~rng:t.rng ~now:(Engine.now t.engine) ~size then begin
      fl.f_node <- Topo.link_dst link;
      fl.f_ttl <- fl.f_ttl - 1;
      Engine.post_at_kind t.engine ~kind:Engine.kind_packet
        ~time:(Topo.arrival link) arrive
    end
  and fan_out node budget =
    (* Offer the packet on every child link of [node]; budget > 0.  The
       clock cannot move during the loop, so it is read (and boxed) once
       for all the links. *)
    let now = Engine.now t.engine in
    List.iter
      (fun link ->
        let child = Topo.link_dst link in
        match Array.unsafe_get tree child with
        | [] ->
            observe t link msg;
            if Topo.transmit link ~rng:t.rng ~now ~size then push_leaf link
        | _ ->
            (* Keep sequence order exact: the pending leaf run precedes
               this child's arrival event. *)
            flush ();
            spawn node budget link)
      (Array.unsafe_get tree node);
    flush ()
  and spawn node budget link =
    let fl = { f_node = node; f_ttl = budget } in
    let rec arrive () =
      let u = fl.f_node in
      (* [deliver] re-checks the destination itself; the guard here stops
         a node that went down mid-flight from forwarding onwards (its
         tree entry predates the crash). *)
      if u <> src && member_mask t g u then deliver t ~src ~dst:u msg;
      if fl.f_ttl > 0 && Topo.node_up t.topo u then
        match Array.unsafe_get tree u with
        | [] -> ()
        | [ link ]
          when (match Array.unsafe_get tree (Topo.link_dst link) with
               | [] -> false
               | _ -> true) ->
            (* Linear chain to another interior node: advance this
               flight in place, no new closure. *)
            launch fl arrive link
        | _ -> fan_out u fl.f_ttl
    in
    launch fl arrive link
  in
  if ttl > 0 then fan_out src ttl

let one_way_delay t a b =
  if a = b then loopback_delay else Route.distance t.route ~src:a ~dst:b

let rtt t a b = one_way_delay t a b +. one_way_delay t b a

(* ---- cache observability (for tests and benchmarks) ------------------ *)

let mcast_cache_size t = t.cache_entries
let mcast_cache_cap t = t.cache_cap
let mcast_tree_builds t = t.tree_builds
let mcast_cache_hits t = t.cache_hits
