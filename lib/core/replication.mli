(** Pluggable logger-replication strategies (source side).

    The source hands every packet to the logging infrastructure; {i how}
    — who receives deposits, when a sequence number counts as safely
    logged, and what happens when the target dies — is this module's
    strategy, selected by {!Config.replication}:

    - {b Primary} (§2.2.3): deposits go to one primary logger, which
      fans [Replica_update]s to its replicas; a seq is durable at the
      best replica's contiguous mark ([Log_ack.replica_seq]).  Fail-over
      queries the replica set and promotes the most up-to-date replica.
    - {b Ring}: deposits forwarded hop-by-hop around an ordered replica
      ring ([Ring_forward]); the tail's cumulative contiguous floor
      ([Ring_ack]) is the durability mark — once the tail has a seq,
      every member upstream does too.  On member death the source
      queries all members and rebuilds the ring from the survivors,
      most-up-to-date first.
    - {b Quorum}: the source sends every deposit to every replica-set
      member; each member acks its own contiguous floor ([Quorum_ack])
      and a seq is durable once ⌈(n+1)/2⌉ member floors reach it.
      Promotion (on deposit-retry exhaustion against a silent primary)
      picks the member with the highest ack floor — no query round.

    All strategies share the exponential deposit-retry backoff
    ({!Config.deposit_delay}) and the [K_deposit]/[K_failover] timer
    keys.  The machine is sans-IO: every call pushes its actions into
    the owning {!Source}'s buffer, fail-over notices included.  It reads
    the source's replay table to retry deposits and, after a promotion,
    to re-deposit retained packets with the new leader; the source
    alone releases payloads from that table. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

type t

val create :
  Config.t ->
  self:address ->
  primary:address ->
  ?replicas:address list ->
  retained:(seq, string * int) Hashtbl.t ->
  ?sink:Trace.sink ->
  unit ->
  t
(** [primary] is the deposit target (primary logger / ring head);
    [replicas] the remaining replica-set members, in ring order for
    [R_ring].  [retained] is the owner's replay table, mapping each seq
    to its payload and the epoch it was sent in; the machine only reads
    it. *)

(** Each call below pushes its actions into the owner's buffer. *)

val deposit :
  t -> Io.out -> now:float -> seq:seq -> epoch:int -> payload:string -> unit
(** Route one deposit under the active strategy and arm its retry
    timer. *)

val on_message :
  t -> Io.out -> now:float -> src:address -> Lbrm_wire.Message.t -> bool
(** Handle acks and replica status replies; [true] when the durable or
    acked floor moved, so the owner may release retained payloads at or
    below {!durable} (subject to the stat-ack window).  Other messages
    are ignored. *)

val on_timer : t -> Io.out -> now:float -> Io.timer_key -> unit
(** Handle [K_deposit] (retry, or suspect the target once the budget is
    spent) and [K_failover] (finish a query round); other keys are
    ignored.  A promotion re-deposits every retained packet, in
    ascending seq order; under quorum it leaves out the packets every
    member's known floor covers. *)

(** {2 Introspection} *)

val primary : t -> address
(** Current deposit target (primary logger or ring head). *)

val replicas : t -> address list
val durable : t -> seq
(** Highest seq safely logged under the strategy's ack policy. *)

val acked : t -> seq
(** Highest individually acknowledged seq (≥ {!durable}). *)

val failovers : t -> int
(** Fail-over rounds begun. *)

(** {2 Allocation cross-check hooks}

    The quorum floor bookkeeping is private to the ack path; these
    re-exports exist solely so [test/test_transport.ml] can measure the
    manifest's zero-tagged entries with [Gc.minor_words]. *)
module Hot : sig
  val member_index : address array -> address -> int -> int
  val note_floor : t -> member:address -> floor:seq -> unit
  val insert_desc : int array -> int -> int -> unit
  val sort_floors : t -> unit
end
