(* Declarative fault schedules applied through the event engine.

   The module only flips {!Topo} up/down state (bumping its state
   epoch, which invalidates route tables and cached multicast trees)
   and invokes the caller's hooks; what a crash or restart *means* for
   the protocol agents living on a node is the runtime's business
   (cancelling timers, rebuilding a fresh state machine). *)

type action =
  | Crash of Topo.node_id
  | Restart of Topo.node_id
  | Link_down of Topo.link
  | Link_up of Topo.link

type event = { at : float; what : action }

let crash ~at node = { at; what = Crash node }
let restart ~at node = { at; what = Restart node }
let link_down ~at link = { at; what = Link_down link }
let link_up ~at link = { at; what = Link_up link }

let outage ~at ~downtime node =
  [ crash ~at node; restart ~at:(at +. downtime) node ]

let partition_site (wan : Builders.wan) ~site ~t0 ~t1 =
  (* Severing the tail circuit in both directions isolates the whole
     site: its hosts hang off the gateway, which reaches the rest of
     the world only through the edge router. *)
  let s = wan.Builders.sites.(site) in
  [
    link_down ~at:t0 s.Builders.tail_up;
    link_down ~at:t0 s.Builders.tail_down;
    link_up ~at:t1 s.Builders.tail_up;
    link_up ~at:t1 s.Builders.tail_down;
  ]

let apply ~engine ~topo ?(on_crash = fun _ -> ()) ?(on_restart = fun _ -> ())
    events =
  let now = Engine.now engine in
  List.iter
    (fun { at; what } ->
      Engine.post_at engine ~time:(Float.max now at) (fun () ->
          match what with
          | Crash node ->
              Topo.set_node_up topo node false;
              on_crash node
          | Restart node ->
              Topo.set_node_up topo node true;
              on_restart node
          | Link_down l -> Topo.set_link_up topo l false
          | Link_up l -> Topo.set_link_up topo l true))
    events

let random_schedule ~rng ~wan ~hosts ~sites ?(crashes = 3) ?(partitions = 2)
    ?(min_down = 1.) ?(max_down = 3.) ~horizon () =
  let duration () =
    min_down +. Lbrm_util.Rng.float rng (Float.max 1e-9 (max_down -. min_down))
  in
  let start () =
    (* Leave room for the outage to heal inside the horizon. *)
    0.5 +. Lbrm_util.Rng.float rng (Float.max 1e-9 (horizon -. max_down -. 0.5))
  in
  let hosts = Array.of_list hosts in
  let sites = Array.of_list sites in
  let crash_events =
    if Array.length hosts = 0 then []
    else
      List.concat
        (List.init crashes (fun _ ->
             let node = Lbrm_util.Rng.pick rng hosts in
             outage ~at:(start ()) ~downtime:(duration ()) node))
  in
  let partition_events =
    if Array.length sites = 0 then []
    else
      List.concat
        (List.init partitions (fun _ ->
             let site = Lbrm_util.Rng.pick rng sites in
             let t0 = start () in
             partition_site wan ~site ~t0 ~t1:(t0 +. duration ())))
  in
  crash_events @ partition_events
