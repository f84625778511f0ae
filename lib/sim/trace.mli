(** The old name of the experiment-metrics registry, now
    {!Lbrm_util.Metrics} itself.  Only [type t] and [create] remain,
    for callers that still build a registry under this name; record
    and read through {!Lbrm_util.Metrics}. *)

type t = Lbrm_util.Metrics.t

val create : unit -> t
