(** Bottleneck link model for the network simulator (DESIGN.md section 16):
    a fixed-rate server draining a FIFO drop-tail queue, with an optional
    ECN marking threshold.  All arithmetic is integer nanoseconds so runs
    are bit-identical across machines and pool widths. *)

type config = {
  queue_capacity : int;      (** drop-tail limit, in packets *)
  ecn_threshold : int;       (** CE-mark admissions at/above this depth; <= 0 disables *)
}
(** Every link serves 1500-byte packets at 100 Mbit/s. *)

val mtu_bytes : int
(** 1500, the fixed packet size. *)

type packet = {
  flow : int;
  seq : int;
  sent_ns : int;      (** send timestamp, echoed on the ACK for RTT samples *)
  ecn_marked : bool;
}

type t

val create : config -> t
val tx_ns : t -> int
(** Serialization time of one packet: 120 us. *)

val config : t -> config
val depth : t -> int
val busy : t -> bool
val set_busy : t -> bool -> unit
(** The simulator drives the service loop: [busy] marks an in-flight
    serialization so at most one dequeue timer is armed per link. *)

val enqueue : t -> packet -> [ `Enqueued | `Dropped ]
(** Admits (possibly CE-marking) or drops the packet. *)

val dequeue : t -> packet option

type stats = { s_enqueued : int; s_dropped : int; s_marked : int; s_busy_ns : int }

val stats : t -> stats
