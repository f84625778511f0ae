(** Secondary-logger population (N_sl) estimation, §2.3.3.

    Two mechanisms, per the paper:

    {b Probing} (after Bolot, Turletti & Wakeman): the source multicasts
    probe rounds with geometrically increasing response probability
    until enough replies arrive to estimate N = replies/p confidently,
    then repeats the final probability several more times — each repeat
    shrinks the estimate's standard deviation by √n (Table 2).

    {b Refinement}: once running, every data packet's statistical-ACK
    count [k'] under the current [p_ack] feeds an EWMA:
    N' = (1−α)·N + α·k'/p_ack. *)

(** Probing-phase driver (a pure decision machine; the source sends the
    probes it requests). *)
module Probing : sig
  type t

  type decision =
    | Probe of { round : int; p : float }  (** send this probe next *)
    | Done of float  (** final estimate *)

  val create : ?target_replies:int -> ?repeats:int -> unit -> t
  (** Initial probability 0.01, ×4 growth per round.  Defaults: stop
      growing at ≥ 10 replies, then 4 further repeats of the final
      probability (5 probes total at that p). *)

  val start : t -> decision
  (** First probe. *)

  val round_finished : t -> replies:int -> decision
  (** Feed the reply count of the round just completed; returns the next
      probe to send or the final estimate. *)

  val estimate : t -> float option
  (** Running estimate (mean of completed same-p rounds), if any. *)
end

val stddev_single : n:float -> p:float -> float
(** σ₁ = sqrt(N(1−p)/p): standard deviation of a one-probe estimate of
    an actual population [n] probed with probability [p] (Table 2's
    first row). *)

val stddev_after : n:float -> p:float -> probes:int -> float
(** σ₁/√probes — Table 2's remaining rows. *)

val refine : alpha:float -> current:float -> k':int -> p_ack:float -> float
(** One EWMA refinement step from an epoch observation. *)

(** Faulty-acker "hotlist" (§2.3.3): loggers that acknowledge packets
    without being designated are counted and, past a threshold,
    ignored. *)
module Hotlist : sig
  type t

  val create : threshold:int -> t
  val note_unsolicited : t -> Lbrm_wire.Message.address -> unit
  val is_ignored : t -> Lbrm_wire.Message.address -> bool
  val ignored : t -> Lbrm_wire.Message.address list
  val decay : t -> unit
  (** Halve all counts (call once per epoch so a transient glitch ages
      out). *)
end
