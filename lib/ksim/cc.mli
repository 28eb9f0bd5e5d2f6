(** Congestion-control policies for the network simulator: the per-ACK
    signal/decision contract plus two stock baseline heuristics in pure
    integer OCaml — a Cubic-flavoured loss-based controller and a
    BBR-flavoured rate-based one.  The learned controller in
    [Rkd.Net_rmt] implements the same contract through the RMT datapath
    with Cubic as its circuit-breaker fallback (DESIGN.md section 16). *)

type signal = {
  now : int;
  rtt_ns : int;         (** this ACK's sample; 0 on loss notifications *)
  min_rtt_ns : int;     (** [max_int] until the first sample *)
  srtt_ns : int;        (** 0 until the first sample *)
  ecn : bool;
  loss : bool;
  inflight : int;
  cwnd : int;
  delivered : int;
  delivery_rate : int;  (** packets/second over the last sample window *)
}

type decision = { cwnd : int; pacing_ns : int (** 0 = ack-clocked *) }

type t = { name : string; init : decision; on_signal : signal -> decision }

val icbrt : int -> int
(** Integer cube root (largest [r >= 0] with [r*r*r <= n]); total on all
    non-negative 62-bit inputs, 0 for negatives. *)

(** Cubic internals, exposed for the unit tests. *)
module Cubic : sig
  type state

  val create : unit -> state
  (** Slow start from a 4-packet window. *)

  val on_signal : state -> signal -> decision
  val cwnd : state -> int
  val w_max : state -> int
  val in_slow_start : state -> bool
end

(** BBR-flavoured internals, exposed for the unit tests. *)
module Bbr : sig
  val gain_cycle : int array
  (** Pacing gains in percent; phase 0 probes (125), phase 1 drains (75). *)

  type state

  val create : unit -> state
  val on_signal : state -> signal -> decision
  val phase : state -> int
  (** Index into [gain_cycle], or -1 during startup/drain. *)

  val in_startup : state -> bool
  val btl_bw : state -> int
end

val cubic : unit -> t
(** A fresh per-flow Cubic instance. *)

val bbr : unit -> t
(** A fresh per-flow BBR-flavoured instance. *)
