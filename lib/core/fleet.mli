(** Drift-aware fleet control plane (DESIGN.md section 17).

    The paper's closing claim is that learned datapath policies must be
    {e safely reconfigurable online}: when accuracy degrades the control
    plane recomputes ML decisions and reconfigures the RMT tables without
    destabilizing the datapath.  This module closes that loop at fleet
    scale: a deterministic daemon loop over [tenants x shards] that

    - tracks per-tenant accuracy through {!Obs} registry views
      ([rmt.fleet.<tenant>.accuracy] / [.drift_episodes] / [.rollbacks]),
    - detects concept drift with {!Adapt} hysteresis (dwell floor plus an
      explicit per-tenant episode cooldown, so a flapping tenant cannot
      thrash installs),
    - on a drift episode retrains a teacher on the tenant's recent
      window, distills student candidates ({!Kml.Distill}), prunes them
      against a declared {!Kml.Model_cost} budget and scores the
      survivors on held-out samples ({!Kml.Nas}-style search under a
      {!Rmt.Resource} install ceiling), and
    - rolls the winner out in stages — 1 shard, then 25%, then all —
      promoting a stage only while every shadow-run divergence budget and
      guardrail window stays clean, with exponential-backoff retry and
      automatic {!Rmt.Control.rollback_program} of every touched shard on
      divergence, trap or breaker trip at any stage.

    The loop is a pure function of seed x tick (no wall clock): a soak is
    bit-identical at every pool width, clean or under a fault plan, which
    is what [rkdctl fleet --soak] and the [drift] chaos flavor check. *)

type params = {
  tenants : int;
  shards : int;
  bootstrap_samples : int;  (** initial-model training set size *)
  window_capacity : int;  (** per-tenant sample ring *)
  drift_start : int;  (** first concept change, in ticks *)
  drift_count : int;  (** changes per tenant over the soak, 70 ticks apart *)
  drift_stagger : int;  (** per-tenant offset; 0 = simultaneous storm *)
}
(** Fixed for every fleet: 4 events per tenant per shard per tick over 4
    features in [0, 1024); {!Adapt}'s monitor; a 6-tick wait between
    degrade detection and retraining and a 24-tick cooldown between one
    tenant's episodes; at most 2 rollout attempts per episode with a
    2-tick doubling backoff and a 12-tick stage deadline; canaries of 8
    invocations with a 256-invocation grace; retraining on the newest 96
    samples once 96 are held, a depth-8 teacher distilled to depth-3 and
    depth-5 students, and a 70% held-out accuracy floor; installs within
    {!Kml.Model_cost.default_budget} and {!Rmt.Resource.default_budget};
    64 ms of simulated time per tick. *)

val default_params : params
(** 12 tenants x 4 shards, two staggered drifts per tenant. *)

val storm_params : params
(** {!default_params} with one simultaneous drift across every tenant —
    the [drift] chaos flavor's schedule. *)

type t

val create :
  ?params:params -> ?fault_specs:(Rmt.Fault.point * float) list -> seed:int -> unit -> t
(** Build the fleet: one {!Rmt.Control} per shard (telemetry namespaced
    [rmt.fleet.shard<i>]), one installed program + table entry + context
    per tenant per shard, one protected hook per shard whose breaker
    degrades that shard to the stock heuristic.  When [fault_specs] is
    given, every shard task of every tick runs under its own
    deterministic {!Rmt.Fault.with_plan} scope keyed by
    (seed, shard, tick) — this is what keeps a faulted soak bit-identical
    across pool widths; without it an ambient [RKD_FAULTS] global plan
    draws from one process-wide rng and is only deterministic
    sequentially. *)

val tick : t -> unit
(** One control-loop iteration: drive every shard's event slice, shard
    0 first, then run the control step (accuracy merge, drift
    detection, episode state machines). *)

val digest : t -> int
(** Order- and width-independent fold of every (shard, tenant) decision
    stream plus the control-plane event stream. *)

val breakers : t -> Rmt.Breaker.t array
val recover : ?max_ticks:int -> t -> bool
(** Fault-free ticks (default at most 256) until every shard breaker has
    re-closed; [true] on success.  Mirrors the chaos recovery phase. *)

type tenant_view = {
  t_id : int;
  t_accuracy_milli : int;
  t_episodes : int;
  t_installs : int;
  t_promotions : int;  (** fully promoted rollouts *)
  t_rollbacks : int;
  t_deferred : int;  (** rollouts deferred on an open breaker *)
  t_max_attempts : int;  (** worst rollout-attempt count over its episodes *)
}

type report = {
  ticks : int;
  events : int;
  digest : int;
  uncaught : int;
  episodes : int;
  installs : int;
  promotions : int;
  rollbacks : int;
  deferred : int;
  max_attempts : int;
  breaker_opens : int;
  breakers_reclosed : bool;
  fallback_served : int;
  mean_accuracy_milli : int;
  per_tenant : tenant_view array;
}

val report : t -> report
val report_json : report -> string
(** One [rkd-fleet/1] JSON object (summary + per-tenant rows), the CI
    artifact format. *)

val soak :
  ?params:params ->
  ?fault_specs:(Rmt.Fault.point * float) list ->
  ?ticks:int ->
  seed:int ->
  unit ->
  report
(** [create] + [ticks] (default 160) iterations + {!recover} +
    {!report}: the [rkdctl fleet] entry point. *)
