(** Experiment metrics: named counters and sample sets.

    A single [Trace.t] is threaded through a simulated deployment;
    protocol agents increment counters ("nack_sent",
    "retrans_multicast", …) and record latency samples
    ("recovery_delay", …).  The benchmark harness reads these to print
    the paper's tables.

    It is a string-keyed view over {!Lbrm_util.Metrics}, the one
    registry type: a name is either a counter or a sample set. *)

type t = Lbrm_util.Metrics.t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
val get : t -> string -> int
(** 0 if never incremented; never creates the counter. *)

val observe : t -> string -> float -> unit
(** Append to the named sample set. *)

val sample : t -> string -> Lbrm_util.Stats.Sample.t
(** The named sample set (created empty on first access). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val samples : t -> (string * Lbrm_util.Stats.Sample.t) list
(** All sample sets, sorted by name. *)

val pp : Format.formatter -> t -> unit
(** Dump counters and sample summaries. *)
