(** Pipelines bind match/action tables to named kernel hook points
    ("each table represents a kernel hooking point", §3.1).

    A hook point is identified by a string (e.g. ["lookup_swap_cache"],
    ["can_migrate_task"]).  Several tables may attach to one hook; they
    fire in attach order and the {e last} table's action result is the
    hook's decision (earlier tables are typically data-collection stages
    whose result is ignored, mirroring the paper's two-stage prefetch
    pipeline).

    A hook may additionally be {!protect}ed: a circuit breaker watches
    every firing, and while it is open the hook serves a registered
    stock-heuristic fallback instead of dispatching the learned tables
    (DESIGN.md section 12). *)

type t

val create : ?view_ns:string -> unit -> t
(** [view_ns] (default ["rmt"]) prefixes every registry view this
    pipeline registers — {!protect} registers
    [<view_ns>.breaker.<hook>.*] — so several pipelines (one per serving
    shard, say) publish disjoint telemetry instead of silently rebinding
    each other's views. *)

val attach : t -> hook:string -> Table.t -> unit

val fire_batch : t -> hook:string -> Batch.t -> now:(unit -> int) -> bool
(** Run every attached table over the whole batch, in attach order, via
    {!Table.lookup_batch}; this is how a hook runs its programs, and a
    single event is a batch of one.  The last table's results stay in the
    batch columns: it is the hook's decision.  A slot that traps in one
    table is skipped by the later ones.  [false] when nothing is attached
    (columns untouched).  [firings] advances by [b.n] — each slot is one
    event.

    On an unprotected hook a trapped slot keeps its [traps] marker and
    zeroed columns.  On a protected hook the breaker grants one admission
    decision per batch; failure containment is then per slot: a slot
    whose program trapped keeps its [traps] marker and is served the
    stock fallback, the remaining slots keep their learned results, and
    the breaker records one failure for the batch (rolling back any [vms]
    still in a canary grace window).  While the breaker is open every
    slot gets the fallback.  Never raises for a contained engine fault. *)

(** {2 Failsafe protection} *)

val protect :
  t ->
  hook:string ->
  ?breaker:Breaker.t ->
  vms:Vm.t array ->
  fallback:(Ctxt.t -> int) ->
  unit ->
  Breaker.t
(** Arm [hook] with a circuit breaker and a stock-heuristic [fallback].

    While the breaker is open, {!fire_batch} answers every slot with
    [fallback ctxt] without touching the tables; half-open probes let real traffic through again
    after the backoff.  Failures recorded against the breaker: a
    contained engine trap during dispatch (which also rolls back any
    [vms] still inside a canary grace window), a guardrail-violation
    storm on any of [vms] (windowed rate >= 0.5), or 8 consecutive
    firings in which the [vms]' rate limiters refused units.  Everything else records a
    success.

    [?breaker] shares an existing breaker across hooks (e.g. both stages
    of the prefetch pipeline trip together); otherwise a fresh one is
    created, named after the hook.  Registers registry
    views [<view_ns>.breaker.<hook>.state] and
    [<view_ns>.breaker.<hook>.fallback_served].  Returns the armed
    breaker. *)

val breaker : t -> hook:string -> Breaker.t option
val fallback_served : t -> hook:string -> int
(** Events answered by the fallback instead of the learned tables. *)

val firings : t -> hook:string -> int
val pp : Format.formatter -> t -> unit
