(** Network topology: nodes and directed links.

    A topology is a mutable graph built once at the start of a
    simulation.  Links are directed; {!add_duplex} is the common helper
    that installs a pair with symmetric parameters (each direction gets
    its own loss-model instance via the factory, since loss models carry
    channel state).

    Every link tracks traffic counters — the experiments that reproduce
    the paper's tail-circuit arguments (§2.2.2) read packet and byte
    counts off individual links. *)

type node_id = int

type kind =
  | Host  (** end system: may send, receive, and run protocol agents *)
  | Router  (** forwards only; decrements TTL *)

type t
(** A topology under construction or in use. *)

type link
(** A directed link. *)

val create : unit -> t

val add_node : t -> kind -> node_id
(** New node; ids are dense from 0. *)

val node_count : t -> int
val kind : t -> node_id -> kind

(** {2 Fault state}

    Nodes and links start up.  Taking a host down makes the net layer
    drop deliveries to it and packets being forwarded through it; a down
    link refuses every transmission (counted in {!drops_down}).  Every
    actual flip, and every {!add_node} or {!add_link}, bumps
    {!state_epoch}, which route tables and cached multicast trees
    compare against their build epoch. *)

val state_epoch : t -> int
(** Monotone counter of up/down state changes (nodes and links) and of
    topology growth. *)

val node_up : t -> node_id -> bool
val set_node_up : t -> node_id -> bool -> unit
val link_up : link -> bool
val set_link_up : t -> link -> bool -> unit

val add_link :
  t ->
  ?bandwidth:float ->
  ?delay:float ->
  ?jitter:float ->
  ?queue:int ->
  ?loss:Loss.t ->
  src:node_id ->
  dst:node_id ->
  unit ->
  link
(** Directed link.  [bandwidth] in bits/s (0 = infinite, the default);
    [delay] is one-way propagation in seconds (default 1 ms); [jitter]
    is the mean of an exponential extra delay per packet (0, the
    default, disables it — note jitter can reorder packets, as IP
    permits); [queue] is the output-queue limit in packets (default
    1000). *)

val add_duplex :
  t ->
  ?bandwidth:float ->
  ?delay:float ->
  ?jitter:float ->
  ?queue:int ->
  ?loss:(unit -> Loss.t) ->
  node_id ->
  node_id ->
  link * link
(** Symmetric pair of links; [loss] is a factory invoked once per
    direction. *)

val links_from : t -> node_id -> link list
(** Outgoing links of a node. *)

val find_link : t -> src:node_id -> dst:node_id -> link option

(** {2 Link accessors} *)

val link_src : link -> node_id
val link_dst : link -> node_id
val link_delay : link -> float
val set_link_loss : link -> Loss.t -> unit
val set_link_jitter : link -> float -> unit

(** {2 Link transmission bookkeeping}

    The net layer calls {!transmit}; counters accumulate. *)

val transmit : link -> rng:Lbrm_util.Rng.t -> now:float -> size:int -> bool
(** Account for one packet of [size] bytes entering the link at [now]:
    apply the loss model, then the bounded output queue and
    serialization at the link bandwidth, then propagation delay.
    [true] when the packet gets through, its far-end arrival time then
    readable with {!arrival}; [false] when it was dropped, the reason
    counted in {!drops_down}, {!drops_loss} or {!drops_queue}.
    Allocates nothing: the arrival is stored in the link's flat float
    record, not returned in a block. *)

val arrival : link -> float
(** Arrival time at the far end of the last packet {!transmit}
    accepted on the link. *)

(** {2 Counters} *)

val packets_sent : link -> int
(** Packets offered to the link (including subsequently dropped ones). *)

val packets_delivered : link -> int
val bytes_delivered : link -> int
val drops_loss : link -> int
val drops_queue : link -> int
val drops_down : link -> int
