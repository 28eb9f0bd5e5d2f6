(** Simulated time in integer nanoseconds.

    All kernel-substrate simulations share one clock; the RMT control
    plane's [now] callback is wired to it so rate limiters and helpers see
    simulated, not wall-clock, time. *)

type t

val create : unit -> t

val advance_to : t -> int -> unit
(** Move to an absolute time; moving backward raises [Invalid_argument]. *)

val us : int -> int
(** Microseconds to nanoseconds. *)

val ms : int -> int
