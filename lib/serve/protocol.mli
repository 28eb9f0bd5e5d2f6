(** Pure decision functions of the serving-plane concurrency protocols.

    The SPSC ring ({!Ring}) and the shard park/wake path ({!Shard}) make
    a handful of small decisions — "is the ring full against my cached
    peer cursor?", "can this batch be served from the snapshot?", "may
    the consumer go to sleep?".  Those decisions are factored out here as
    pure functions of plain integers so that the implementation and the
    {!Analysis.Mc_models} transition systems call {e the same code}: the
    model checker then exercises the exact predicates the datapath runs,
    not a transcription of them (DESIGN.md section 15).

    Everything in this module is total, allocation-free and effect-free. *)

(** {1 SPSC ring (producer side)} *)

val push_free : tail:int -> cached_head:int -> capacity:int -> bool
(** The producer may write slot [tail]: fewer than [capacity] events sit
    between its cursor and its snapshot of the consumer's.  Cursors are
    monotonically increasing (never masked), so the test is exact when
    [cached_head] is fresh and conservative (may report full when space
    has just been freed) when it is stale — the producer refreshes the
    snapshot and re-asks exactly once on an apparent-full verdict. *)

(** {1 SPSC ring (consumer side)} *)

val drain_ready : cached_tail:int -> head:int -> max:int -> bool
(** The cached producer snapshot alone can fill a batch of [max]: no
    refresh needed.  When false, the consumer must re-read the shared
    tail before concluding anything — otherwise published events could
    be left behind on an under-filled (or empty) verdict. *)

val drain_batch : cached_tail:int -> head:int -> max:int -> int
(** Batch size to serve from the (possibly just refreshed) snapshot:
    [min (cached_tail - head) max], clamped at zero. *)

(** {1 Shard park/wake} *)

val should_sleep : should_stop:bool -> rings_empty:bool -> bool
(** The consumer, holding the park mutex with its parked flag published,
    may block on the condition variable: it is not shutting down and the
    mutex-protected re-check found no ring events.  Producers observe
    the parked flag {e after} their push and serialize on the same mutex
    to broadcast, so a [true] verdict here can never strand a published
    event (machine-checked by {!Analysis.Mc_models.shard}). *)

(** {1 Conformance} *)

(** The surface a ring implementation must present.  {!Ring} is checked
    against it at compile time (see [shard.ml]); the model checker's
    small-scope ring drives {!push_free}/{!drain_ready}/{!drain_batch}
    through the same signature discipline, keeping model and
    implementation honest against each other. *)
module type SPSC = sig
  type t

  val create : capacity:int -> t
  val capacity : t -> int
  val try_push : t -> tenant:int -> page:int -> stamp:int -> bool
  val drain_into : t -> max:int -> int array -> int array -> int array -> int
  val is_empty : t -> bool
  val length : t -> int
end
