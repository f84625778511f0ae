(** Dead reckoning (Singhal & Cheriton, ref [17] of the paper).

    A sender runs the same extrapolation model its receivers use and
    transmits a fresh state update only when the model's prediction
    drifts beyond a threshold from ground truth — this is what keeps
    dynamic DIS entities near 1 packet/s instead of tens (§1, §2.1.2).

    {!Emitter} is the sender side (decides when an update is due);
    {!extrapolate} is the shared prediction used by both ends. *)

type model =
  | Static  (** prediction = last state; any movement triggers updates *)
  | Constant_velocity  (** first-order: p + v·dt *)

val extrapolate : model -> Entity.state -> at:float -> Entity.state
(** Predicted state at time [at] (≥ the state's timestamp). *)

module Emitter : sig
  type t

  val create :
    model:model -> threshold:float -> ?max_silence:float ->
    Entity.state -> t
  (** [threshold] is the position-error bound (metres) beyond which an
      update must be sent.  [max_silence] (default 5 s) forces an update
      even when the model tracks perfectly, bounding receiver staleness
      like a DIS heartbeat. *)

  val observe : t -> truth:Entity.state -> [ `Send of Entity.state | `Quiet ]
  (** Feed the current ground truth; returns the update to transmit if
      the prediction has drifted too far (or appearance changed, or
      [max_silence] expired). *)

  val updates_sent : t -> int
end
