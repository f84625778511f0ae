(** Online statistics for experiment harnesses.

    {!t} is a Welford accumulator (constant space: count, mean, variance,
    extrema).  {!Sample} additionally retains up to {!Sample.cap}
    observations so that percentiles can be reported. *)

type t
(** Welford accumulator. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two observations. *)

val stddev : t -> float
val min : t -> float
(** [infinity] when empty. *)

val max : t -> float
(** [neg_infinity] when empty. *)

val pp : Format.formatter -> t -> unit

(** Bounded sample set with percentile queries.

    Every observation is retained until {!cap} are held.  From then on
    the retained set is thinned evenly and deterministically: when full,
    every other retained value is dropped and the stride doubles, so the
    set holds exactly the observations whose index (from 0) is a
    multiple of a power of two.  {!count}, {!mean}, {!stddev}, {!min}
    and {!max} stay exact over every observation; {!percentile} and
    {!values} are exact below the cap and approximate above it. *)
module Sample : sig
  type t

  val cap : int
  (** Most values ever retained: [2^16]. *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  (** Observations added, retained or not. *)

  val mean : t -> float
  val stddev : t -> float

  val percentile : t -> float -> float
  (** [percentile s p] for [p] in [\[0,100\]], by linear interpolation
      over the retained values.  [nan] when empty. *)

  val median : t -> float
  val min : t -> float
  val max : t -> float
  val values : t -> float array
  (** Snapshot of the retained observations (unsorted, insertion
      order): all of them while at most {!cap} have been added. *)
end

(** Fixed-width histogram over [\[lo, hi)] with [bins] buckets;
    out-of-range observations land in the edge buckets. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> float -> unit
  val counts : t -> int array
  val total : t -> int
  val pp : Format.formatter -> t -> unit
end
