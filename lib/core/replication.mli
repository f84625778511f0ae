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
    keys.  The machine is sans-IO: it returns {!Io.action}s plus
    {!event}s that tell the owning {!Source} what changed (release
    floor advanced, fail-over outcome) so the source can release or
    re-deposit its retained payloads. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

type event =
  | E_release of seq
      (** the durability floor advanced: retained payloads at or below
          it may be released (subject to the stat-ack window) *)
  | E_suspected  (** deposit target suspected dead *)
  | E_promoted of { primary : address; floor : seq }
      (** fail-over completed: [primary] now leads; re-deposit every
          retained packet above [floor] *)
  | E_kept of address  (** fail-over found no better candidate *)

type t

val create :
  Config.t ->
  self:address ->
  primary:address ->
  ?replicas:address list ->
  retained_above:(seq -> int) ->
  ?sink:Trace.sink ->
  unit ->
  t
(** [primary] is the deposit target (primary logger / ring head);
    [replicas] the remaining replica-set members, in ring order for
    [R_ring].  [retained_above floor] reports how many payloads the
    owner still retains above [floor] (the [F_promoted] trace's
    re-deposit count). *)

val deposit :
  t -> now:float -> seq:seq -> epoch:int -> payload:string -> Io.action list
(** Route one deposit under the active strategy and arm its retry
    timer.  Also used by the owner to re-deposit after [E_promoted]. *)

val on_message :
  t ->
  now:float ->
  src:address ->
  Lbrm_wire.Message.t ->
  (Io.action list * event list) option
(** [None] if the message is not replication traffic. *)

val on_timer :
  t ->
  now:float ->
  Io.timer_key ->
  lookup:(seq -> (string * int) option) ->
  (Io.action list * event list) option
(** [lookup seq] returns the retained [(payload, epoch)] for retries;
    [None] if the timer key is not replication-owned. *)

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
