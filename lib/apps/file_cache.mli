(** LBRM as an alternative to leases for distributed file caching
    (§4.2, contrasting Gray & Cheriton's leases).

    Instead of per-file leases, each client subscribes to one LBRM
    channel per file server and reliably receives invalidation
    notifications.  If the channel goes silent longer than the lease
    period (no data {e and} no heartbeats), the client must assume it
    missed invalidations and drops its whole cache — the same safety
    property a lease timeout provides, without per-file bookkeeping. *)

val invalidation : path:string -> string
(** Payload the file server multicasts when a file changes. *)

module Client : sig
  type t

  val create : lease_period:float -> t

  val insert : t -> path:string -> data:string -> unit
  val lookup : t -> path:string -> string option

  val on_payload : t -> string -> (string, string) result
  (** Apply an invalidation: evicts the named file. *)

  val on_silence : t -> elapsed:float -> bool
  (** Feed {!Lbrm.Io.N_silence} observations.  Returns [true] when the
      silence exceeded the lease period and the entire cache was
      dropped. *)

  val size : t -> int
  val full_invalidations : t -> int
  (** Times the whole cache was dropped for silence. *)
end
