module Heap = Lbrm_util.Heap

type table = {
  dist : float array;
  hops : int array;
  first : Topo.link option array; (* first link out of the source *)
  (* SPT child links per node; [||] unless the source is a multicast
     root ({!spt_children}), the only reader. *)
  children : Topo.link list array;
}

type t = {
  topo : Topo.t;
  (* Node-indexed; [unbuilt] until the node's first query this epoch. *)
  mutable tables : table array;
  (* Node-indexed; [Some l] iff [l] is the node's only out-link.  Such a
     single-homed node forwards through its neighbour's table. *)
  mutable uplink : Topo.link option array;
  (* Topo.state_epoch both arrays were built at: a node or link going up
     or down, or the topology growing, invalidates every table. *)
  mutable at_epoch : int;
  mutable built : int;
}

let unbuilt = { dist = [||]; hops = [||]; first = [||]; children = [||] }
let create topo = { topo; tables = [||]; uplink = [||]; at_epoch = -1; built = 0 }
let tables_built t = t.built

let refresh t =
  let n = Topo.node_count t.topo in
  t.tables <- Array.make n unbuilt;
  t.uplink <-
    Array.init n (fun v ->
        match Topo.links_from t.topo v with [ l ] -> Some l | _ -> None);
  t.at_epoch <- Topo.state_epoch t.topo

(* Dijkstra from [src] into the fresh arrays of [tbl]; also records, for
   each node, the first link taken out of [src] and, when [tbl] has room
   for them, the shortest-path-tree child links. *)
let compute t src tbl =
  let { dist; hops; first; children } = tbl in
  let n = Array.length dist in
  let with_children = Array.length children > 0 in
  let parent_link : Topo.link option array =
    Array.make (if with_children then n else 0) None
  in
  let visited = Array.make n false in
  let pq = Heap.create ~dummy:(-1) in
  dist.(src) <- 0.;
  hops.(src) <- 0;
  Heap.add pq ~prio:0. src;
  let rec drain () =
    match Heap.pop pq with
    | None -> ()
    | Some (d, u) ->
        if not visited.(u) then begin
          visited.(u) <- true;
          let relax link =
            let v = Topo.link_dst link in
            let nd = d +. Topo.link_delay link in
            if Topo.link_up link && Topo.node_up t.topo v && nd < dist.(v)
            then begin
              dist.(v) <- nd;
              hops.(v) <- hops.(u) + 1;
              if with_children then parent_link.(v) <- Some link;
              first.(v) <- (if u = src then Some link else first.(u));
              Heap.add pq ~prio:nd v
            end
          in
          (* A down node neither originates nor forwards; [src] itself
             still relaxes so routes *to* a down host vanish while its
             table stays queryable. *)
          if u = src || Topo.node_up t.topo u then
            List.iter relax (Topo.links_from t.topo u)
        end;
        drain ()
  in
  drain ();
  for v = 0 to Array.length parent_link - 1 do
    match parent_link.(v) with
    | Some link ->
        let u = Topo.link_src link in
        children.(u) <- link :: children.(u)
    | None -> ()
  done

let build t src ~children =
  let n = Array.length t.tables in
  let tbl =
    {
      dist = Array.make n infinity;
      hops = Array.make n (-1);
      first = Array.make n None;
      children = (if children then Array.make n [] else [||]);
    }
  in
  compute t src tbl;
  t.tables.(src) <- tbl;
  t.built <- t.built + 1;
  tbl

let[@lint.hot] table t src =
  if Topo.state_epoch t.topo <> t.at_epoch then refresh t;
  let tbl = t.tables.(src) in
  if tbl != unbuilt then tbl
  else
    (* First use of the node's table this state epoch: one Dijkstra. *)
    build t src ~children:false

(* A single-homed [src] (one out-link [l] to [r]) builds no table: every
   path out of it runs through [r], so Dijkstra from [src] would pick [l]
   for exactly the destinations [r] reaches.  The packet then forwards
   hop by hop on [r]'s own table. *)
let[@lint.hot] next_hop t ~src ~dst =
  if Topo.state_epoch t.topo <> t.at_epoch then refresh t;
  match t.uplink.(src) with
  | None -> (table t src).first.(dst)
  | Some l as hop ->
      let r = Topo.link_dst l in
      if
        dst <> src && Topo.link_up l && Topo.node_up t.topo r
        && (dst = r || (table t r).hops.(dst) >= 0)
      then hop
      else None

let distance t ~src ~dst = (table t src).dist.(dst)
let hops t ~src ~dst = (table t src).hops.(dst)
(* A root's table is built with its children in the same Dijkstra.  Only
   a node whose table already served {!distance} or {!hops} before it
   first multicast pays a second run. *)
let spt_children t ~root ~node =
  if Topo.state_epoch t.topo <> t.at_epoch then refresh t;
  let tbl = t.tables.(root) in
  let tbl =
    if Array.length tbl.children > 0 then tbl
    else build t root ~children:true
  in
  tbl.children.(node)
