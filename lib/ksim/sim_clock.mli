(** Simulated time in integer nanoseconds.

    All kernel-substrate simulations share one clock; the RMT control
    plane's [now] callback is wired to it so rate limiters and helpers see
    simulated, not wall-clock, time. *)

type t

val create : unit -> t
val now : t -> int
val advance : t -> int -> unit
(** [advance t dt] moves time forward by [dt] ns; negative [dt] raises
    [Invalid_argument]. *)

val advance_to : t -> int -> unit
(** Move to an absolute time; moving backward raises [Invalid_argument]. *)

val reader : t -> unit -> int
(** A closure suitable for {!Rmt.Control.set_clock}. *)

val us : int -> int
(** Microseconds to nanoseconds. *)

val ms : int -> int
