(* Peer registry with liveness states; see peer_manager.mli for the
   state machine.  Group membership is kept as a sorted port array per
   group, which the runtime's fan-out walks directly: deterministic and
   allocation-free. *)

type state = Connecting | Active | Suspect | Dead

let state_label = function
  | Connecting -> "connecting"
  | Active -> "active"
  | Suspect -> "suspect"
  | Dead -> "dead"

type peer = {
  port : int;
  mutable st : state;
  mutable last_recv : float;
  mutable sent_to : int;
  mutable recv_from : int;
}

type group = { mutable members : int array (* sorted ascending *) }

type t = {
  suspect_after : float;
  dead_after : float;
  on_transition : port:int -> before:state -> after:state -> unit;
  peers : (int, peer) Hashtbl.t;
  groups : (int, group) Hashtbl.t;
  mutable last_sweep : float;
}

let sweep_interval = 0.25

let create ?(suspect_after = 3.0) ?(dead_after = 30.0)
    ?(on_transition = fun ~port:_ ~before:_ ~after:_ -> ()) () =
  {
    suspect_after;
    dead_after = Float.max dead_after suspect_after;
    on_transition;
    peers = Hashtbl.create 64;
    groups = Hashtbl.create 8;
    last_sweep = neg_infinity;
  }

let transition t peer after =
  let before = peer.st in
  if before <> after then begin
    peer.st <- after;
    t.on_transition ~port:peer.port ~before ~after
  end

let find t port = Hashtbl.find_opt t.peers port

(* A known peer costs one [Hashtbl.find] and allocates nothing; an
   unknown one is registered. *)
let peer t ~port ~now =
  match Hashtbl.find t.peers port with
  | p -> p
  | exception Not_found ->
      let p =
        { port; st = Connecting; last_recv = now; sent_to = 0; recv_from = 0 }
      in
      Hashtbl.add t.peers port p;
      p

let ensure t ~port ~now = ignore (peer t ~port ~now)

(* [now] is the caller's boxed clock reading, stored as it is. *)
let[@lint.hot] note_recv t ~port ~now =
  let p = peer t ~port ~now in
  p.last_recv <- now;
  p.recv_from <- p.recv_from + 1;
  transition t p Active

let[@lint.hot] note_sent t ~port ~now =
  let p = peer t ~port ~now in
  p.sent_to <- p.sent_to + 1

let state t ~port = Option.map (fun p -> p.st) (find t port)
let last_recv t ~port = Option.map (fun p -> p.last_recv) (find t port)
let traffic t ~port = Option.map (fun p -> (p.sent_to, p.recv_from)) (find t port)

let sweep_peer t ~now p =
  let silence = now -. p.last_recv in
  match p.st with
  | Dead -> ()
  | Connecting | Active | Suspect ->
      if silence > t.dead_after then transition t p Dead
      else if silence > t.suspect_after && p.st <> Suspect then
        (* A Connecting peer that never answered ages like a silent
           Active one: it was expected to speak and has not. *)
        transition t p Suspect

let tick t ~now =
  if now -. t.last_sweep >= sweep_interval then begin
    t.last_sweep <- now;
    (* Sorted walk: transition callbacks (trace events) fire in a
       deterministic order. *)
    Hashtbl.fold (fun _ p acc -> p :: acc) t.peers []
    |> List.sort (fun a b -> Int.compare a.port b.port)
    |> List.iter (sweep_peer t ~now)
  end

(* --- groups ----------------------------------------------------------- *)

let group_table t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g
  | None ->
      let g = { members = [||] } in
      Hashtbl.add t.groups group g;
      g

let array_mem a x =
  let n = Array.length a in
  let rec go i = i < n && (a.(i) = x || go (i + 1)) in
  go 0

let join t ~group ~port ~now =
  ensure t ~port ~now;
  let g = group_table t group in
  if not (array_mem g.members port) then begin
    let m = Array.append g.members [| port |] in
    Array.sort Int.compare m;
    g.members <- m
  end

let leave t ~group ~port =
  let g = group_table t group in
  if array_mem g.members port then
    g.members <- Array.of_list (List.filter (fun p -> p <> port)
                                  (Array.to_list g.members))

let member t ~group ~port =
  match Hashtbl.find_opt t.groups group with
  | Some g -> array_mem g.members port
  | None -> false

let members t ~group =
  match Hashtbl.find t.groups group with
  | g -> g.members
  | exception Not_found -> [||]

let group_size t ~group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> Array.length g.members
  | None -> 0

let counts t =
  Hashtbl.fold
    (fun _ p (c, a, s, d) ->
      match p.st with
      | Connecting -> (c + 1, a, s, d)
      | Active -> (c, a + 1, s, d)
      | Suspect -> (c, a, s + 1, d)
      | Dead -> (c, a, s, d + 1))
    t.peers (0, 0, 0, 0)

let known t = Hashtbl.length t.peers
