(** Preallocated datagram buffer pool: a free-list of fixed-size slots
    over one backing region (the style of uberhf's [mem_pool_quotes]).

    The batched transport leases slots for receive scatter and transmit
    gather; {!Lbrm_wire.Codec.decode_bytes_exn} parses in place at a
    slot's offset through the runtime's kept reader and
    {!Lbrm_wire.Codec.encode_at_exn} serializes straight into one
    through its kept writer, so the steady-state datagram path allocates
    nothing but the decoded message: slot handles are preallocated and
    reused, and lease/release is a stack push/pop.  The pool owns the
    bytes; the runtime's reader and writer only point into them.

    When every slot is out, {!lease} degrades to a fresh heap allocation
    (a {e fallback} buf, [slot = -1]) instead of failing — counted in
    {!fallback_allocs} so sizing problems are visible.  Double releases
    are refused and counted, never corrupting the free list. *)

type buf = private {
  bytes : Bytes.t;  (** the shared region (pooled) or a private buffer *)
  off : int;  (** slot start within [bytes] *)
  cap : int;  (** slot capacity *)
  slot : int;  (** slot index; [-1] marks a fallback allocation *)
}

type t

val create : ?slots:int -> ?slot_size:int -> unit -> t
(** Defaults: 256 slots of {!Lbrm_wire.Codec.slot_size} (2048) bytes,
    a 512 KiB region. *)

val region : t -> Bytes.t
(** The backing region all pooled slots alias. *)

val slot_size : t -> int

val lease : t -> buf
(** A free pooled slot (its preallocated handle — no allocation), or a
    fresh fallback buffer when the pool is exhausted. *)

val pooled : buf -> bool
(** Whether the buf is a region slot (goes into mmsg batches) or a
    fallback allocation (must take the one-shot send path). *)

val release : t -> buf -> unit
(** Return a leased slot to the free list.  Releasing a fallback buf is
    a no-op; releasing a slot that is already free is refused and
    counted in {!double_releases}. *)

val free_count : t -> int
val outstanding : t -> int
(** Pooled slots currently leased. *)

val leases : t -> int
(** Total pooled leases served. *)

val fallback_allocs : t -> int
val double_releases : t -> int

val max_outstanding : t -> int
(** High-water mark of concurrently leased slots — the number the pool
    actually needed. *)
