(** 3-vectors for DIS entity kinematics (metres, metres/second). *)

type t = { x : float; y : float; z : float }

val zero : t
val make : float -> float -> float -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val dot : t -> t -> float
val norm : t -> float
val distance : t -> t -> float
val equal : t -> t -> bool
(** Within 1e-9 of each other. *)

val pp : Format.formatter -> t -> unit
