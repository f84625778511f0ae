(** Batched datagram syscalls and the monotonic clock.

    This is the single choke point between the runtime and the kernel's
    datagram API.  Transmit is tiered, fastest first:

    + {b GSO}: a run of equal-size datagrams to one destination is
      handed over as a single [UDP_SEGMENT] super-datagram that the
      kernel splits at the very bottom of its stack — one syscall
      {e and} one trip through the protocol layers for the whole run
      (~3-4x over per-skb sends on loopback);
    + {b sendmmsg}: mixed-destination stretches, up to {!batch_max}
      datagrams per syscall;
    + {b sendto}: the portable per-datagram fallback.

    Receive drains up to {!batch_max} datagrams per [recvmmsg].  All
    batched paths scatter into / gather from caller-chosen offsets of
    one shared backing region (the runtime's fixed slots) with no
    per-datagram allocation.  Where the stubs are unavailable
    (non-Linux) — or when batching is disabled to benchmark the
    difference — every entry point falls back to portable
    one-datagram-at-a-time [Unix.sendto]/[Unix.recvfrom].

    lbrm-lint's [raw-socket] rule bans direct [Unix.sendto]/[recvfrom]
    everywhere else, so all datagram IO flows through this module. *)

val batch_max : int
(** Hard per-syscall batch ceiling compiled into the stubs (64). *)

val mmsg_available : bool
(** Whether the [recvmmsg]/[sendmmsg] stubs were compiled in. *)

val gso_available : unit -> bool
(** Whether the running kernel accepts [UDP_SEGMENT] sends (probed once
    at startup; Linux >= 4.18).  Flips to [false] for the rest of the
    process if the kernel ever rejects a GSO send outright. *)

val tx_tiers : unit -> int * int * int
(** Process-wide transmit accounting: datagrams that left through the
    [(gso, sendmmsg, per-datagram)] tiers, in that order. *)

val monotonic_now : unit -> float
(** Seconds from [clock_gettime(CLOCK_MONOTONIC)] — immune to NTP
    steps, unlike [Unix.gettimeofday]; protocol timers must use this.
    Falls back to [gettimeofday] on platforms without a monotonic
    clock.  The epoch is arbitrary: only differences are meaningful. *)

val ipv4_of_string : string -> int option
(** Dotted-quad IPv4 to a host-order int ([127.0.0.1] ->
    [0x7f000001]); [None] if the string is not a dotted quad. *)

val recv_batch :
  use_mmsg:bool ->
  Unix.file_descr ->
  Bytes.t ->
  offs:int array ->
  slot:int ->
  count:int ->
  lens:int array ->
  ports:int array ->
  int
(** Drain up to [count] (<= {!batch_max}) datagrams from a non-blocking
    socket in one syscall, datagram [i] landing at
    [region.[offs.(i) .. offs.(i)+slot)].  On return [lens.(i)] holds
    its length (-1 when it was truncated to the slot) and [ports.(i)]
    the IPv4 source port.  Returns how many arrived (0 = would block).
    [use_mmsg:false] (or missing stubs) takes the portable
    one-[recvfrom]-per-datagram fallback. *)

val send_batch :
  use_mmsg:bool ->
  use_gso:bool ->
  Unix.file_descr ->
  Bytes.t ->
  offs:int array ->
  lens:int array ->
  ports:int array ->
  count:int ->
  ip:int ->
  sockaddr:(int -> Unix.sockaddr) ->
  unit
(** Flush a staged batch: datagram [i] is
    [region.[offs.(i) .. offs.(i)+lens.(i))] addressed to [ip] (host
    order, see {!ipv4_of_string}) at [ports.(i)].  Runs of 4+
    equal-size datagrams to one port take the GSO tier (when [use_gso]
    and the kernel allows; a shorter final segment is permitted), mixed
    stretches go through [sendmmsg], and [use_mmsg:false] (or missing
    stubs) falls back to per-datagram sends.  Retries after a short
    writability wait on partial sends / full socket buffers, so on
    return every datagram has been handed to the kernel.  [sockaddr]
    resolves a destination port to a (cached) address for the fallback
    path only. *)

val send_one :
  Unix.file_descr -> Bytes.t -> off:int -> len:int -> Unix.sockaddr -> unit
(** One-shot send (the oversize path), with the same
    wait-and-retry behaviour on a full socket buffer. *)
