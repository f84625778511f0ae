(** Binary min-heap with cancellable entries, tuned for event loops.

    Used as the event queue of the discrete-event simulator and for
    protocol timer wheels.  Entries are ordered by a [float] priority
    (typically a timestamp); ties are broken by insertion order so that
    events scheduled for the same instant fire FIFO.

    Two insertion paths exist:
    - {!add} returns a handle for O(log n) cancellation via {!remove};
    - {!put} returns no handle and recycles its internal node through a
      free pool, so a steady schedule-fire workload allocates nothing.

    Slots freed by {!pop}/{!remove} are blanked, so the heap's backing
    array never retains values (e.g. closures) that have left the
    heap. *)

type 'a t
(** A mutable min-heap of values of type ['a]. *)

type 'a handle
(** Handle onto an entry, for cancellation. *)

val create : dummy:'a -> 'a t
(** A fresh empty heap.  [dummy] is an arbitrary value of the element
    type used to blank freed slots and pooled nodes, so the heap's
    backing storage never retains a value that has left the heap.  It
    is never returned by any query. *)

val size : 'a t -> int
(** Number of live entries. *)

val is_empty : 'a t -> bool

val add : 'a t -> prio:float -> 'a -> 'a handle
(** Insert a value with the given priority; returns its handle. *)

val put : 'a t -> prio:float -> 'a -> unit
(** Insert a value that will never be cancelled.  Equivalent to
    [ignore (add t ~prio v)] but allocation-free in steady state: the
    internal node is drawn from (and returned to) a bounded free
    pool. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority entry, or [None] if empty. *)

val pop_exn : 'a t -> 'a
(** Remove the minimum-priority entry and return its value without
    boxing an option/tuple.  Read {!min_prio} first if the priority is
    needed.  @raise Invalid_argument on an empty heap. *)

val peek : 'a t -> (float * 'a) option
(** The minimum-priority entry without removing it. *)

val min_prio : 'a t -> float
(** Priority of the minimum entry, or [infinity] when the heap is
    empty.  Allocation-free; the natural guard for drain loops. *)

val remove : 'a t -> 'a handle -> bool
(** Cancel an entry.  Returns [false] if it was already popped or
    removed (idempotent). *)

val move : 'a t -> 'a handle -> prio:float -> unit
(** Give a live entry a new priority.  Its place in the order is
    exactly that of {!remove} followed by {!add} of the same value (it
    takes a fresh tie-break number), but the handle stays valid and no
    node is allocated.  @raise Invalid_argument if the entry is not in
    the heap. *)

val value : 'a handle -> 'a
(** The value carried by a handle.  Stays readable after the entry
    leaves the heap (the handle itself keeps it alive). *)

val is_live : 'a handle -> bool
(** Whether the handle's entry is still in the heap. *)
