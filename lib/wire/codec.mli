(** Binary encoding of {!Message.t}.

    Big-endian, length-delimited fields; a one-byte tag selects the
    variant.

    There is one parser and one encoder, each an in-place core that
    works through a caller-owned, reusable {!Reader} or {!Writer} and
    reports failure by raising {!Malformed}:
    - {!decode_exn}/{!decode_bytes_exn} re-aim a kept reader at a window
      of the input and return the message; its payload is a
      {!Payload.t} view over the input, with {!Payload.to_owned} as the
      explicit copy-out.  The message is the only allocation.
    - {!encode_at_exn} writes one message into a slot of a caller's
      buffer through a kept writer and returns its size: no allocation.

    The UDP runtime owns one reader for receive and one writer for
    transmit and calls the cores directly; every call site must handle
    {!Malformed} (the lint's [decode-totality] rule checks it).

    {!decode}, {!decode_bytes} and {!encode_at} are thin total
    wrappers over the cores: each builds a fresh reader or writer and
    turns {!Malformed} into [Error].  {!encode} shares the encoder's
    validation and field writer.  The
    {!Writer}/{!Reader} primitives are also exposed for application
    payloads (the DIS PDUs reuse them). *)

type error =
  | Truncated  (** input ended mid-field *)
  | Bad_tag of int  (** unknown message tag *)
  | Bad_value of string  (** field failed validation *)
  | Trailing of int  (** bytes left over after a full message *)

val error_to_string : error -> string

exception Malformed of error
(** Raised by the in-place cores: the input is malformed, or the
    message fails validation or does not fit its slot.  It is the
    malformed path of the runtime, not a bug: drop the datagram. *)

(** Append-only big-endian serializer over a growable [Bytes] scratch;
    {!encode_at_exn} re-aims a kept one at a caller's slot. *)
module Writer : sig
  type t

  val create : ?size:int -> unit -> t
  (** Fresh writer with its own scratch (default 256 bytes). *)

  val wrap : Bytes.t -> t
  (** Writer over caller-supplied scratch; replaced (not mutated) if the
      encoding outgrows it. *)

  val contents : t -> string
  (** Copy of the written bytes. *)

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val f64 : t -> float -> unit

  val bytes : t -> string -> unit
  (** u32 length prefix followed by the raw bytes. *)

  val payload : t -> Payload.t -> unit
  (** u32 length prefix followed by the view's bytes, blitted straight
      from its backing buffer. *)

  val raw : t -> string -> unit
  (** Raw bytes, no prefix. *)
end

(** Positional big-endian parser over a [pos, limit) window of a
    string. *)
module Reader : sig
  type t

  val create : ?pos:int -> ?len:int -> string -> t
  (** Parser over [src.[pos .. pos+len)] (defaults: the whole string).
      A kept reader can be handed to {!decode_exn}, which re-aims it.
      @raise Invalid_argument when the window is out of bounds. *)

  val u8 : t -> (int, error) result
  val u16 : t -> (int, error) result
  val u32 : t -> (int, error) result
  val f64 : t -> (float, error) result

  val bytes : t -> (string, error) result
  (** Length-prefixed field, copied out as a string. *)

  val payload : t -> (Payload.t, error) result
  (** Length-prefixed field as a zero-copy view over the input. *)

  val remaining : t -> int
end

val tag_of : Message.t -> int
(** The message's one-byte wire tag, in [\[0, tags)]. *)

val tags : int

val nack_max : int
(** Largest sequence list a [Nack] may carry (decoder-enforced; the
    encoder refuses to build anything bigger). *)

val promote_max : int
(** Largest replica-floor list a [Promote] may carry; protocol code
    must truncate before encoding. *)

val slot_size : int
(** Bytes in one datagram slot of the UDP runtime (2048);
    a message longer than that is dropped on receive as truncated. *)

val nack_seqs_max : int
(** Most seqs one [Nack] may carry and still fit a {!slot_size} slot:
    [(slot_size - 5) / 4] = 510.  Protocol code splits longer batches
    with {!nack_batches}, in both runtimes alike. *)

val nack_batches : int list -> int list list
(** The seqs in order, cut into runs of at most {!nack_seqs_max}; [[]]
    for no seqs. *)

val encode_at_exn :
  Writer.t -> Bytes.t -> pos:int -> limit:int -> Message.t -> int
(** The encode core: serialize one message directly into
    [buf.[pos .. limit)] through the writer (which is re-aimed there;
    its own scratch is not used) and return the encoded length, never
    growing or reallocating the buffer and allocating nothing.  Because
    {!Message.body_size} is exact, the slot bound is checked once before
    any byte is written.
    @raise Malformed [(Bad_value _)] when a sequence list exceeds
    {!nack_max}/{!promote_max} or the message does not fit the slot; the
    buffer is then untouched. *)

val encode : Message.t -> (string, error) result
(** Serialize one message into a fresh exactly-sized string.
    [Error (Bad_value _)] when a sequence list exceeds {!nack_max} /
    {!promote_max} — the same limits {!decode} enforces, so every
    encodable message round-trips. *)

val encode_at :
  Bytes.t -> pos:int -> limit:int -> Message.t -> (int, error) result
(** {!encode_at_exn} through a fresh writer, with [Error] for
    {!Malformed}; the buffer is untouched on [Error]. *)

val decode_exn : Reader.t -> string -> pos:int -> len:int -> Message.t
(** The parser core: re-aim the reader at [s.[pos .. pos+len)] and parse
    exactly one message from it; leftover bytes within the window are an
    error.  Payloads are views over [s].
    @raise Malformed when the window is out of bounds ([Truncated]) or
    the bytes are not one well-formed message. *)

val decode_bytes_exn : Reader.t -> Bytes.t -> pos:int -> len:int -> Message.t
(** Same, reading directly from a byte buffer (e.g. a receive
    slot) without copying it to a string first.  Payload views alias
    the buffer: they are invalidated when it is refilled, so retainers
    must {!Payload.to_owned} first. *)

val decode : ?pos:int -> ?len:int -> string -> (Message.t, error) result
(** {!decode_exn} through a fresh reader over the given window (default:
    the whole string), with [Error] for {!Malformed}. *)

val decode_bytes : ?pos:int -> ?len:int -> Bytes.t -> (Message.t, error) result
(** {!decode} over a byte buffer; views alias it as with
    {!decode_bytes_exn}. *)

val roundtrip_size_matches : Message.t -> bool
(** Whether [String.length (encode m) + header = Message.wire_size m] —
    the invariant the size model relies on; exercised by tests. *)
