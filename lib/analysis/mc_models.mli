(** Small-scope transition systems for the serving-plane protocols
    (DESIGN.md §15), checked by {!Mc.run}.

    Both models follow the one-shared-access-per-transition rule: every
    transition performs at most one load/store/RMW of shared state (a
    shared access plus purely thread-local computation may share a
    transition — the local part commutes trivially), so the enumerated
    interleavings include every placement of the real protocols' racy
    accesses.  The decision logic inside transitions is {e shared with
    the implementation}: the models call {!Serve.Protocol.push_free},
    {!Serve.Protocol.drain_ready}, {!Serve.Protocol.drain_batch} and
    {!Serve.Protocol.should_sleep} — the same functions
    [Ring.try_push]/[Ring.drain_into]/[Shard.park] execute. *)

type ring_bug =
  | Stale_cached_head
      (** the producer's apparent-full verdict skips the head-snapshot
          refresh: a push is dropped while space is free (lost push) *)
  | No_drain_refresh
      (** the consumer's under-filled batch skips the tail-snapshot
          refresh: published events are stranded after the producer
          quiesces (quiescent-drain incompleteness) *)

type shard_bug =
  | Dropped_wake
      (** the producer never peeks the parked flag after a push: the
          consumer can sleep forever on queued events (lost wake) *)

val ring :
  ?bug:ring_bug -> capacity:int -> pushes:int -> max_batch:int -> unit -> (module Mc.MODEL)
(** SPSC ring: one producer attempting [pushes] events against a ring of
    [capacity] (power of two), one consumer draining batches of up to
    [max_batch].  Producer micro-steps: cached-full check, head-snapshot
    refresh + verdict, slot write, tail publish; consumer micro-steps:
    cached-ready check, tail-snapshot refresh + batch verdict, slot
    copy, head publish.  Checked properties: a full verdict only when
    the ring is truly full (no lost push); an empty verdict at producer
    quiescence only when the ring is truly empty (quiescent-drain
    completeness); drained values arrive in push order (FIFO); no slot
    is overwritten before it is drained; cached cursor snapshots never
    exceed the true cursors and cursors never retreat (monotonicity). *)

val shard : ?bug:shard_bug -> pushes:int -> unit -> (module Mc.MODEL)
(** Shard park/wake: one producer performing [pushes] ring pushes (each
    followed by the wake protocol: parked-flag peek, then
    mutex-serialized broadcast), one consumer sweeping the rings, then
    parking (mutex, publish parked, re-check the rings via
    {!Serve.Protocol.should_sleep}, condition wait).  Checked property:
    a terminal state with the consumer blocked in [Condition.wait] is
    accepted only when no event remains unserved (no lost wake). *)
