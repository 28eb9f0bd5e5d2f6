(** One serving shard: a tenant partition's SPSC rings, drain scratch,
    pinned datapath state and telemetry (DESIGN.md section 14).

    A shard is driven by exactly one consumer — either a domain-pinned
    worker ({!Serving.start}) or the caller's own domain in inline mode —
    and receives events through one {!Ring} per producer, so no queue
    ever has two writers or two readers.  The datapath itself is a
    {!sink} callback; {!Datapath} is the standard one. *)

type sink = {
  run : n:int -> tenants:int array -> pages:int array -> now:int -> unit;
      (** Serve the first [n] slots of the column arrays.  Called only
          from the shard's consumer domain; the arrays are the shard's
          scratch and are overwritten by the next batch. *)
  digest : unit -> int;
      (** Order-insensitive fleet digest of the decisions served so far
          (0 when the sink does not track one). *)
}

type t

val create :
  index:int -> producers:int -> ring_capacity:int -> max_batch:int -> sink -> t
(** Registers per-shard counters [rmt.serve.<index>.{invocations,batches}]
    and histogram [rmt.serve.<index>.queue_ns].  [invocations] counts the
    events handed to the sink; [batches] counts the non-empty ring
    drains, each one call of the sink's [run], not the datapath's
    dispatches: {!Datapath} may split one drain into several
    {!Rmt.Control.fire_batch} rounds, and the count of
    [<view_ns>.batch_slots] ({!Datapath.batch_slots}) is the number of
    those. *)

val ring : t -> int -> Ring.t
(** [ring t producer] — the SPSC ring producer [producer] pushes to. *)

val digest : t -> int
val served : t -> int
(** Events drained into the sink so far.  Worker-owned; exact once the
    shard's consumer is quiescent. *)

val drain_once : t -> now:int -> int
(** One sweep on the consumer domain: drain up to [max_batch] events
    from each producer ring into the sink.  Returns the number of events
    served.  Allocation-free in the steady state (warm tenants). *)

val park : t -> should_stop:(unit -> bool) -> unit
(** Block the consumer until woken.  Publishes the parked flag, then
    re-checks [should_stop] and the rings under the park mutex
    ({!Protocol.should_sleep}) before sleeping, so a concurrent push
    cannot be lost.  Exception-safe: a raise
    out of [should_stop] (or a spurious-wakeup path) still clears the
    parked flag and releases the mutex.  Consumer domain only. *)

val wake : t -> unit
(** Producer-side nudge: a single atomic load unless the worker is
    actually parked. *)

val wake_force : t -> unit
(** Unconditional wake (shutdown path): serializes on the park mutex so
    a worker about to sleep cannot miss it. *)

(** {2 Standard datapath sink}

    A shard-private {!Rmt.Control} running the prefetch collect program
    behind a per-shard circuit breaker: per-tenant execution-context
    slabs are created on first touch, the table's default action runs
    the program for every tenant (no per-tenant entries, so every batch
    is uniform-[Run] and keeps the SoA kernel), every batch goes through
    {!Rmt.Control.fire_batch}, and each slot's decision folds into a
    rolling per-tenant digest stored at a reserved dense context key. *)

module Datapath : sig
  type dp

  val create : view_ns:string -> max_batch:int -> unit -> dp
  (** [view_ns] namespaces the shard's control-plane registry views
      ([<view_ns>.breaker.*], [<view_ns>.program.*]). *)

  val sink : dp -> sink
  val table : dp -> Rmt.Table.t
  val vm : dp -> Rmt.Vm.t

  val breaker : dp -> Rmt.Breaker.t
  (** The shard's circuit breaker; open = the shard is serving the stock
      fallback marker. *)

  val digest : dp -> int
  (** Xor over tenants of their rolling decision digests: identical for
      any shard count and any batch boundaries (per-tenant FIFO is
      preserved end to end; the cross-tenant combine is commutative). *)

  val tenant_count : dp -> int

  val batch_slots : dp -> Obs.Histo.t
  (** [<view_ns>.batch_slots]: slots per {!Rmt.Control.fire_batch}
      dispatch, observed once per dispatch (one-slot ones included), so
      its sum is the events served and its count the dispatches made.
      Process-wide, like every registered metric: sinks created under
      the same [view_ns] share it. *)

  val hook : string
  (** The hook the serve table is attached to ([lookup_swap_cache]). *)
end
