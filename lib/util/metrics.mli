(** A small per-agent metrics registry: named counters, gauges and
    samples (full-retention {!Stats.Sample}, so percentile queries come
    for free).

    Handles are fetched once by name and then updated without further
    hashing — [counter]/[gauge]/[sample] intern on first use.  A name
    is bound to one metric shape for the registry's lifetime; asking
    for it under a different shape raises [Invalid_argument].

    Snapshots are sorted by name so that any serialized output is
    deterministic regardless of registration order. *)

type t

val create : unit -> t

(** {2 Handles} *)

type counter
type gauge

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val sample : t -> string -> Stats.Sample.t

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> float -> unit
val read : gauge -> float
val observe : Stats.Sample.t -> float -> unit

(** {2 Reporting} *)

val count : t -> string -> int
(** A counter's value by name; 0 if absent.  Never registers. *)

val counters : t -> (string * int) list
val samples : t -> (string * Stats.Sample.t) list
(** Just the counters / sample sets, sorted by name. *)

type snapshot_value =
  | V_int of int
  | V_float of float
  | V_summary of { count : int; mean : float; p50 : float; p99 : float; max : float }

val snapshot : t -> (string * snapshot_value) list
(** Sorted by metric name. *)

val pp : Format.formatter -> t -> unit
(** One line per counter ([%-32s %d]), then one per non-empty sample
    set ([n= mean= p50= p99=] at [%.4g]), each group sorted by name;
    gauges and empty samples are left out.  The [lbrm simulate]
    report. *)
