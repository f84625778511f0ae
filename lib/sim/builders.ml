type site = {
  gateway : Topo.node_id;
  edge : Topo.node_id;
  hosts : Topo.node_id array;
  tail_up : Topo.link;
  tail_down : Topo.link;
}

type wan = { topo : Topo.t; backbone : Topo.node_id; sites : site array }

let lan_bandwidth = 10e6
let lan_delay = 0.9e-3
let tail_bandwidth = 1.544e6
let tail_delay = 2e-3
let backbone_bandwidth = 45e6
let backbone_delay = 17e-3

let dis_wan ~sites ~hosts_per_site () =
  assert (sites > 0 && hosts_per_site > 0);
  let topo = Topo.create () in
  let backbone = Topo.add_node topo Router in
  let mk_site _ =
    let gateway = Topo.add_node topo Router in
    let edge = Topo.add_node topo Router in
    let _bb =
      Topo.add_duplex topo ~bandwidth:backbone_bandwidth ~delay:backbone_delay
        backbone edge
    in
    let tail_up, tail_down =
      Topo.add_duplex topo ~bandwidth:tail_bandwidth ~delay:tail_delay
        gateway edge
    in
    let hosts =
      Array.init hosts_per_site (fun _ ->
          let h = Topo.add_node topo Host in
          let _ =
            Topo.add_duplex topo ~bandwidth:lan_bandwidth ~delay:lan_delay
              gateway h
          in
          h)
    in
    { gateway; edge; hosts; tail_up; tail_down }
  in
  let sites = Array.init sites mk_site in
  { topo; backbone; sites }

let host w ~site i = w.sites.(site).hosts.(i)

let all_hosts w =
  Array.to_list w.sites
  |> List.concat_map (fun s -> Array.to_list s.hosts)

let lan ~hosts () =
  let topo = Topo.create () in
  let switch = Topo.add_node topo Router in
  let hs =
    Array.init hosts (fun _ ->
        let h = Topo.add_node topo Host in
        let _ =
          Topo.add_duplex topo ~bandwidth:lan_bandwidth ~delay:lan_delay
            switch h
        in
        h)
  in
  (topo, switch, hs)
