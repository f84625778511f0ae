(** Expanding-ring discovery of a nearby secondary logger (§2.2.1).

    The receiver multicasts scoped [Discovery_query]s on the discovery
    group with doubling TTL (1, 2, 4, … up to the configured maximum);
    the first logger to reply wins, being topologically nearest with
    high probability.  If no ring yields a reply the search reports
    failure, and the embedding application may fall back to a statically
    configured logger or volunteer to run one locally. *)

type address = Lbrm_wire.Message.address

type t

val create : Config.t -> t

(** The search pushes its actions into the embedding machine's buffer. *)

val start : t -> Io.out -> now:float -> unit
(** Send the first (TTL 1) query. *)

val handle_message :
  t -> Io.out -> now:float -> src:address -> Lbrm_wire.Message.t -> bool
(** Consume [Discovery_reply]; [false] if the message is not ours. *)

val handle_timer : t -> Io.out -> now:float -> Io.timer_key -> bool
(** Consume [K_discovery _] round timeouts; [false] if the key is not
    ours. *)

val result : t -> address option
(** The discovered logger, once any. *)

val finished : t -> bool
