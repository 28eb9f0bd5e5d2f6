(** Discrete-event priority queue (binary min-heap on event time).

    Ties are broken by insertion order, so simulations are deterministic
    regardless of heap internals. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> time:int -> 'a -> unit
val pop : 'a t -> (int * 'a) option
(** Earliest event (time, payload), or [None] when empty. *)

val peek_time : 'a t -> int option
