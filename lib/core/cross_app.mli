(** Cross-application optimization (§2.1 benefit #4): "the kernel [learns]
    the behaviors of multiple applications, how they relate to each other…
    monitoring may detect that tasks exhibit producer-consumer behaviors,
    and activate optimizations for their efficient communication."

    This prefetcher watches {e all} processes' access streams (the
    centralized view per-application approaches lose) and detects
    producer→consumer coupling: a consumer whose accesses track another
    process's accesses at a fixed page offset and lag (two mappings of a
    shared buffer, or a transform pipeline's staging files).  Detection is
    a cross-stream majority vote over observed (consumer page − recent
    producer page) deltas; once a coupling is confirmed, every producer
    access triggers a prefetch of the page the consumer will need, far
    enough ahead of the consumer that even single-step lag is hidden.

    Per-process single-stream prefetchers cannot express this policy at
    all: the information lives in the correlation {e between} streams. *)

type t

val create : unit -> t
(** Remembers 32 producer pages per process and couples on 24 matching
    deltas out of a 32-observation vote round. *)

val prefetcher : t -> Ksim.Prefetcher.t

type coupling = {
  producer : int;
  consumer : int;
  delta : int;      (** consumer page = producer page + delta *)
}

val couplings : t -> coupling list
(** Currently active producer→consumer couplings. *)

type stats = {
  observations : int;
  active_couplings : int;
  cross_prefetches : int; (** prefetches issued on behalf of another process *)
}

val stats : t -> stats
