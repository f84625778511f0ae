(** Packet delivery over a simulated topology.

    ['msg Net.t] moves application messages between {!Topo.Host} nodes,
    hop by hop through routers, applying each traversed link's loss
    model, bounded queue and serialization delay.  Multicast follows the
    per-source shortest-path tree, replicating at branch points — so a
    multicast packet crosses each shared link once, which is what makes
    the paper's tail-circuit bandwidth arguments measurable.

    TTL counts link traversals: a packet sent with [ttl:n] can reach
    nodes at most [n] links away.  LBRM's site-scoped retransmissions
    (§2.2.1) use small TTLs to confine repairs to a site. *)

type 'msg t

type 'msg handler = src:Topo.node_id -> 'msg -> unit
(** Receive callback installed on a host.  It carries no clock: a
    handler that needs the time reads it from the engine. *)

val create :
  ?mcast_cache_size:int ->
  engine:Engine.t ->
  topo:Topo.t ->
  size_of:('msg -> int) ->
  unit ->
  'msg t
(** [size_of] gives the on-wire size in bytes, for bandwidth modeling.
    [mcast_cache_size] caps the total number of cached pruned multicast
    trees across all groups (default 512); least recently used entries
    are evicted past the cap. *)

val engine : 'msg t -> Engine.t
val topo : 'msg t -> Topo.t
val route : 'msg t -> Route.t

val set_handler : 'msg t -> Topo.node_id -> 'msg handler -> unit
(** Replaces any previous handler on that node. *)

val join : 'msg t -> group:int -> Topo.node_id -> unit
val leave : 'msg t -> group:int -> Topo.node_id -> unit
val members : 'msg t -> group:int -> Topo.node_id list
val is_member : 'msg t -> group:int -> Topo.node_id -> bool

val unicast : 'msg t -> ?ttl:int -> src:Topo.node_id -> dst:Topo.node_id -> 'msg -> unit
(** Send point-to-point (default [ttl] 64).  [dst = src] is local
    loopback, delivered after 50 µs. *)

val multicast : 'msg t -> ?ttl:int -> src:Topo.node_id -> group:int -> 'msg -> unit
(** Send to all current members of the group except the sender itself. *)

val one_way_delay : 'msg t -> Topo.node_id -> Topo.node_id -> float
(** Propagation delay along the routed path (no queueing). *)

val rtt : 'msg t -> Topo.node_id -> Topo.node_id -> float
(** Two-way propagation delay. *)

val on_link_transit : 'msg t -> (Topo.link -> 'msg -> unit) -> unit
(** Register an observer invoked for every (message, link) offering —
    before loss/queue dropping.  Experiments use this to count protocol
    traffic crossing particular links (e.g. NACKs on a tail circuit). *)

val mcast_cache_size : 'msg t -> int
(** Number of cached pruned multicast trees, summed over all groups —
    at most the configured capacity.  Trees are keyed by (source,
    membership fingerprint) and verified against a mask snapshot, so a
    recurring membership state reuses its old tree. *)

val mcast_cache_cap : 'msg t -> int
(** The configured capacity. *)

val mcast_tree_builds : 'msg t -> int
(** Total pruned-tree constructions since {!create}.  A membership
    change in one group must only force rebuilds for that group, and a
    membership state seen before (within cache capacity) must not force
    one at all. *)

val mcast_cache_hits : 'msg t -> int
(** Multicasts served from the tree cache.  One lookup happens per
    multicast, so [hits + builds = multicasts] (up to rebuilds forced
    by topology state changes). *)
