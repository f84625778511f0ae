(** A wb/SRM-style reliable multicast baseline (§6 of the paper).

    The paper contrasts LBRM's organized, hierarchical recovery with the
    "fundamentally unorganized" recovery of the {e wb} whiteboard
    protocol (Floyd et al., SIGCOMM '95): a receiver that detects a loss
    multicasts a repair request to the whole group after a random delay
    proportional to its distance from the source (to let one request
    suppress the others); any member holding the packet multicasts the
    repair after a similar randomized delay (duplicates suppressed the
    same way).  Loss detection when idle relies on fixed-interval
    session messages announcing the highest sequence number.

    This implementation runs directly over the simulator (its packet
    vocabulary is incompatible with LBRM's, so it gets its own [Net]
    instantiation) and records the §6 comparison metrics: recovery
    delay, and how many request/repair multicasts every member must
    process. *)

type msg =
  | Data of { seq : int; payload : string }
  | Session of { highest : int }
  | Request of { seq : int }
  | Repair of { seq : int; payload : string }

val size_of : msg -> int
(** Modeled wire size (28-byte header + body). *)

type config = {
  session_interval : float;  (** fixed session-message period (s) *)
  c1 : float;  (** request-delay offset multiplier (of RTT to source) *)
  c2 : float;  (** request-delay random width multiplier *)
  d1 : float;  (** repair-delay offset multiplier *)
  d2 : float;  (** repair-delay random width multiplier *)
  request_backoff : float;  (** request re-send backoff multiple *)
}

val default_config : config
(** wb-like constants: c1 = d1 = 1, c2 = d2 = 1, 1 s sessions. *)

type t
(** A deployed SRM session over a simulated topology. *)

val deploy :
  net:msg Lbrm_sim.Net.t ->
  metrics:Lbrm_util.Metrics.t ->
  config:config ->
  group:int ->
  source:Lbrm_sim.Topo.node_id ->
  members:Lbrm_sim.Topo.node_id list ->
  t
(** Install the source and receiver agents and join everyone to
    [group].  Agents start their session timers immediately. *)

val send : t -> string -> unit
(** Multicast one data packet from the source, now. *)

val delivered_count : t -> Lbrm_sim.Topo.node_id -> int
(** Distinct data packets the member has (original or repaired). *)

val all_have : t -> int -> bool
(** Every member holds the given sequence number. *)

(** Metrics written: "srm.request_mcast", "srm.repair_mcast",
    "srm.dup_request", "srm.dup_repair", "srm.member_msgs" (multicast
    control messages processed across members), and the
    "srm.recovery_latency" sample. *)
