(** Binary min-heap: the frontier of {!Lbrm_sim.Route}'s Dijkstra.

    Entries are ordered by a [float] priority; ties are broken by
    insertion order (FIFO), so equal-distance nodes settle in the order
    they were reached and route tables are reproducible.  Slots freed
    by {!pop} are blanked, so the backing array never retains a value
    that has left the heap.  Timers do not live here: every runtime's
    timers run on {!Lbrm_sim.Engine}. *)

type 'a t
(** A mutable min-heap of values of type ['a]. *)

val create : dummy:'a -> 'a t
(** A fresh empty heap.  [dummy] is an arbitrary value of the element
    type used to blank freed slots; it is never returned. *)

val add : 'a t -> prio:float -> 'a -> unit
(** Insert a value with the given priority. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority entry, or [None] if empty. *)
