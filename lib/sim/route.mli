(** Shortest-path routing over a topology.

    Routes minimize accumulated propagation delay (Dijkstra).  Tables are
    computed lazily per source and cached until {!Topo.state_epoch}
    moves, which it does on every up/down flip and whenever the topology
    gains a node or link.

    A single-homed node (exactly one out-link) never builds a table for
    {!next_hop}: it answers with that link whenever its neighbour is up
    and reaches the destination, which is the hop Dijkstra from the node
    would pick.  Only multi-homed nodes (routers), multicast roots
    ({!spt_children}) and nodes asked for {!distance} or {!hops} hold a
    table, so route memory is O(those nodes × n).  Only a multicast
    root's table carries the shortest-path-tree children. *)

type t

val create : Topo.t -> t

val next_hop : t -> src:Topo.node_id -> dst:Topo.node_id -> Topo.link option
(** First link on the shortest path, [None] if unreachable.  Allocates
    nothing once the tables it reads are built. *)

val distance : t -> src:Topo.node_id -> dst:Topo.node_id -> float
(** Propagation delay along the shortest path; [infinity] if
    unreachable. *)

val hops : t -> src:Topo.node_id -> dst:Topo.node_id -> int
(** Link count along the shortest path; [-1] if unreachable. *)

val spt_children : t -> root:Topo.node_id -> node:Topo.node_id -> Topo.link list
(** Outgoing links of [node] in the shortest-path tree rooted at [root]
    (i.e. toward nodes whose shortest path from [root] runs through
    [node] via that link).  This is the multicast distribution tree.
    The root's first call builds its table, children included, in one
    Dijkstra run; a root whose table was built earlier without them (by
    {!distance} or {!hops}) is rebuilt once. *)

val tables_built : t -> int
(** Dijkstra runs since {!create}: one per node whose table was needed,
    per state epoch. *)
