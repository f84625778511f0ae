(** Stock-quote dissemination (§4.1).

    A broker's terminal caches the latest quote per symbol; the exchange
    multicasts updates over LBRM.  Receiver-reliability fits exactly:
    a lost quote must be recoverable, but a newer quote for the same
    symbol supersedes it — the terminal never blocks waiting for an old
    price. *)

type quote = { symbol : string; price : float; timestamp : float }

val encode : quote -> string
val decode : string -> (quote, Lbrm_wire.Codec.error) result
val equal : quote -> quote -> bool
val pp : Format.formatter -> quote -> unit

(** The exchange: random-walk price process per symbol. *)
module Exchange : sig
  type t

  val create : rng:Lbrm_util.Rng.t -> symbols:string list -> t
  (** Prices start at 100. *)

  val tick : t -> now:float -> quote
  (** Advance a uniformly chosen symbol by a ±1 % step and return the
      new quote (the payload for [Lbrm.Source.send]). *)

  val price : t -> string -> float option
end

(** The terminal: latest-quote cache with staleness accounting. *)
module Terminal : sig
  type t

  val create : unit -> t

  val on_payload : t -> string -> (quote, Lbrm_wire.Codec.error) result
  (** Feed an LBRM-delivered payload.  Quotes older than the cached one
      for the same symbol are ignored (late repairs of superseded
      prices). *)

  val quote : t -> string -> quote option
  val updates_applied : t -> int
  val superseded_dropped : t -> int
  (** Late repairs ignored because a newer quote had already arrived. *)
end
