(** Packet-level discrete-event network simulator (DESIGN.md section 16).

    Flows share one bottleneck link ({!Link}: fixed-rate FIFO, drop-tail,
    optional ECN threshold).  A packet spends a quarter of its flow's base
    RTT reaching the bottleneck, waits, is serialized, and the delivery
    notification takes the remaining three quarters back — so the no-queue
    RTT is [base_rtt + tx] and queueing adds delay the policies can see.
    Drops surface as loss notifications one feedback delay later.

    The run is a pure function of (config, policies, specs): integer
    nanoseconds everywhere, and same-timestamp events resolve in insertion
    order ({!Event_queue}), so digests are bit-identical across pool
    widths and machines. *)


type flow_report = {
  f_id : int;
  f_size : int;
  f_fct_ns : int;
  f_delivered : int;
  f_losses : int;
  f_completed : bool;
}

type result = {
  policy : string;         (** name of the first flow's policy *)
  flows : flow_report array;
  duration_ns : int;
  delivered_pkts : int;
  retransmits : int;
  drops : int;
  ecn_marks : int;
  goodput_mbps : float;
  mean_fct_ms : float;
  p99_fct_ms : float;      (** exact 99th percentile flow-completion time *)
  fairness : float;        (** Jain index over per-flow delivery rates *)
  incomplete : int;
  digest : int;            (** decision/ack digest for determinism checks *)
}

val mix : int -> int -> int
(** The digest combiner; the chaos soak, the fleet and Table 3 fold
    their digests with it too. *)

val run : link:Link.config -> make_cc:(Flow.spec -> Cc.t) -> Flow.spec array -> result
(** [make_cc] is called once per flow, in flow order, before any event
    runs — a fresh policy instance per flow.  Flows still unfinished at
    60 s of simulated time are censored there. *)
