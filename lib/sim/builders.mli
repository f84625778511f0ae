(** Canonical topologies for the experiments.

    {!dis_wan} reproduces the paper's Figure 1: sites of LAN-attached
    hosts behind T1 tail circuits, joined by a wide-area backbone.  Each
    site has a gateway router on the LAN side and an edge router at the
    provider side of its tail circuit; the long-haul latency lives on
    the edge–backbone segment. *)

type site = {
  gateway : Topo.node_id;  (** router on the site LAN *)
  edge : Topo.node_id;  (** router at the provider end of the tail *)
  hosts : Topo.node_id array;
  tail_up : Topo.link;  (** gateway → edge (site → WAN) *)
  tail_down : Topo.link;  (** edge → gateway (WAN → site) *)
}

type wan = {
  topo : Topo.t;
  backbone : Topo.node_id;
  sites : site array;
}

val dis_wan : sites:int -> hosts_per_site:int -> unit -> wan
(** Links: 10 Mbit/s LAN at 0.9 ms; 1.544 Mbit/s (T1) tail at 2 ms;
    45 Mbit/s backbone segments at 17 ms (so cross-site RTT ≈ 80 ms and
    intra-site RTT ≈ 3.6 ms, matching the paper's §2.2.2 ping
    numbers). *)

val host : wan -> site:int -> int -> Topo.node_id
(** [host w ~site i] is host [i] of site [site]. *)

val all_hosts : wan -> Topo.node_id list

val lan : hosts:int -> unit -> Topo.t * Topo.node_id * Topo.node_id array
(** Single-switch LAN of {!dis_wan}'s LAN links (10 Mbit/s, 0.9 ms):
    returns (topology, switch router, hosts). *)
