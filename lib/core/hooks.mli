(** Kernel hook-point names (§3.1): the decision points where RMT tables
    are installed.  Using one registry keeps table wiring and experiment
    code in agreement. *)

val lookup_swap_cache : string
(** Memory subsystem, per-access data collection (case study 1). *)

val swap_cluster_readahead : string
(** Memory subsystem, prefetch decision (case study 1). *)

val can_migrate_task : string
(** Scheduler, migration decision (case study 2). *)

val net_cc : string
(** Network stack, per-flow congestion-control decision (case study 3,
    DESIGN.md section 16): the installed program picks a cwnd/pacing
    action class from the flow's ACK-time feature block. *)

val fleet_predict : string
(** Per-tenant learned decision point driven by the fleet control plane
    (DESIGN.md section 17): one protected hook per shard, with an
    exact-match table entry per tenant. *)

(** {2 Execution-context key layout}

    Context keys are shared between hook wiring, bytecode programs and
    host-side feature plumbing. *)

val key_pid : int
val key_page : int
val key_last_page : int

val key_heuristic : int
(** The stock kernel heuristic's decision for the current event, written
    by the host before firing a protected hook so a circuit-breaker
    fallback can serve it verbatim (DESIGN.md section 12). *)

val key_flow : int
(** Flow identity for [net_cc] firings. *)

val key_feature_base : int
(** Feature block: recent deltas (most recent first) followed by derived
    features; see {!Prefetch_rmt} and {!Sched_rmt} for each block's arity. *)
