(** Experiment harness: regenerates every table and figure of the paper's
    evaluation (§4) plus the ablations listed in DESIGN.md.

    All experiments are deterministic given the seed: Tables 1 and 2 and
    every ablation run at seed 42.  See EXPERIMENTS.md for
    measured-vs-paper numbers.

    Every fan-out (tables, ablation sweeps) runs on the shared domain
    pool ([Par.global]; width from [RKD_DOMAINS] or the core count).
    Each task derives its state from the seed and its task identity
    ([Kml.Rng.split]), so results are bit-identical at every pool width —
    DESIGN.md §9 states the contract, [test/test_par.ml] enforces it. *)

(** {2 Table 1 — page prefetching} *)

type table1_row = {
  benchmark : string;  (** "video-resize" | "matrix-conv" *)
  system : string;     (** "linux" | "leap" | "rmt-ml" *)
  accuracy_pct : float;
  coverage_pct : float;
  completion_s : float;
  faults : int;
}

val mem_config : Ksim.Mem_sim.config
(** The configuration used by Table 1 and the prefetch ablations: 2048-page
    cache, 40 µs of CPU work per access, 50 µs swap reads. *)

val table1 : unit -> table1_row list

(** {2 Table 2 — scheduler mimicry} *)

type table2_row = {
  benchmark : string;       (** blackscholes | streamcluster | fib | matmul *)
  system : string;          (** "mlp-full" | "mlp-lean" | "linux" *)
  accuracy_pct : float;     (** mimic accuracy on held-out decisions; 100 for linux *)
  jct_s : float;
}

val table2_benchmark : seed:int -> string -> table2_row list
(** One workload's three rows (mlp-full / mlp-lean / linux).  [table2]
    fans these out on the domain pool, one task per workload. *)

val table2 : unit -> table2_row list

(** {2 Ablations} *)

type lean_row = { n_features : int; accuracy_pct : float; reads_per_decision : float }

val ablation_lean_monitoring : unit -> lean_row list
(** Ablation A: scheduler-mimic accuracy and per-decision monitor reads as
    the feature count shrinks 15 → 1 (permutation-importance order). *)

type window_row = { retrain_period : int; accuracy_pct : float; coverage_pct : float }

val ablation_window : unit -> window_row list
(** Ablation B: prefetch quality vs. online retrain period (matrix-conv). *)

type quant_row = { benchmark : string; float_acc_pct : float; quant_acc_pct : float }

val ablation_quantization : unit -> quant_row list
(** Ablation C: float vs. Q16.16 MLP accuracy on the scheduler datasets. *)

type adapt_row = {
  phase : string;          (** "video" | "conv-after-shift" *)
  adaptive : bool;         (** online retraining enabled after the shift *)
  accuracy_pct : float;
  coverage_pct : float;
}

val ablation_adaptivity : unit -> adapt_row list
(** Ablation D: a video→conv workload shift with the model frozen at the
    shift versus retrained online per window (§3.1's reconfiguration
    story).  Note: the depth-scaling accuracy monitor alone barely moves
    these numbers because the delta-class frequency gate already makes a
    stale model conservative — EXPERIMENTS.md discusses this. *)

type distill_row = {
  model : string;          (** "teacher-mlp" | "student-tree" *)
  accuracy_pct : float;
  fidelity_pct : float;    (** agreement with the teacher (100 for teacher) *)
  macs : int;
  comparisons : int;
}

val ablation_distillation : unit -> distill_row list

type privacy_row = {
  epsilon_milli : int;     (** per-query epsilon charged by the helper *)
  mean_abs_noise : float;  (** observed |noise| on an aggregate context query *)
  queries_answered : int;  (** before the fixed total budget ran out *)
  queries_denied : int;
}

val ablation_privacy : unit -> privacy_row list
(** Ablation F: the DP trade-off for aggregate context queries under a
    fixed total budget — low per-query epsilon answers many noisy queries,
    high per-query epsilon answers few precise ones before exhaustion. *)

val privacy_program : helper_id:int -> budget_milli:int -> Rmt.Program.t
(** Ablation F's [agg_query] program: a sum over 16 monitor words through
    helper [helper_id], under a total privacy budget of [budget_milli]. *)

(** {2 Figure 1 family — VM overhead} *)

type overhead_row = {
  engine : string;         (** "interpreted" | "jit" *)
  program : string;
  ns_per_invocation : float;
  steps_per_invocation : float;
}

type fig1_fixture = {
  collect : Rmt.Vm.t;  (** [pf_collect], no model *)
  predict : Rmt.Vm.t;  (** [pf_predict], consulting [tree] *)
  tree : Kml.Decision_tree.t;  (** trained on 512 samples at seed 7 *)
  one : Rmt.Batch.t;  (** one slot carrying a prefetch-hook context *)
}

val fig1_fixture : Rmt.Vm.engine -> fig1_fixture
(** The representative prefetch programs installed under [engine]: what
    {!vm_overhead} times and the bench [fig1/*] rows measure.  Every call
    builds a fresh control plane and context. *)

val vm_overhead : unit -> overhead_row list
(** Wall-clock per-invocation cost of {!fig1_fixture}'s programs under
    both engines, over 50,000 invocations each (complemented by the
    Bechamel microbenchmarks in bench/main.exe). *)

(** {2 Extension experiments (paper §3.2 / §6 future work)} *)

type family_row = {
  family : string;        (** "tree" | "qmlp" | "int-svm" | "perceptron" *)
  accuracy_pct : float;   (** mimic accuracy on held-out decisions *)
  f_macs : int;
  f_comparisons : int;
  f_memory_words : int;
  train_side : string;    (** "kernel (integer)" or "userspace (float)" *)
}

val ablation_model_family : unit -> family_row list
(** Ablation G: the in-kernel model menu of the paper's Figure 1 — integer
    decision tree, quantized MLP, integer SVM and the fully-integer online
    perceptron — compared on the scheduler-mimic task with their static
    admission costs. *)

type nas_row = {
  candidate : string;     (** e.g. "mlp-16" / "nas winner 8-4" *)
  val_accuracy_pct : float;
  n_macs : int;
  admitted : bool;        (** fits the fast-path budget the verifier enforces *)
}

val ablation_nas : unit -> nas_row list
(** Ablation H: cost-bounded architecture search (§3.2 "Customized ML") —
    random NAS under the fast-path budget versus the hand-picked
    architecture, showing what the verifier would and would not admit. *)

type granularity_row = {
  g_system : string;       (** "rmt-ml" | "linux" | "leap" *)
  granularity : string;    (** "per-inode" | "per-process" *)
  g_accuracy_pct : float;
  g_coverage_pct : float;
}

val ablation_granularity : unit -> granularity_row list
(** Ablation I: match granularity (§3.1 — "inode numbers for per-file
    entries, and PIDs for per-application entries").  The same interleaved
    multi-file workload is offered to each prefetcher twice: once with
    per-inode streams (one table entry per file) and once collapsed to a
    single per-process stream.  Per-file matching untangles the interleave
    for every system. *)

type cross_row = {
  x_system : string;
  x_accuracy_pct : float;
  x_coverage_pct : float;
  x_completion_s : float;
}

val ablation_cross_app : unit -> cross_row list
(** Ablation J: cross-application optimization (§2.1 #4) on a
    producer/consumer pair sharing a buffer through different mappings.
    Every per-stream prefetcher scores ~0 (each stream is an irregular
    walk); the cross-application monitor detects the coupling and removes
    the consumer's faults entirely. *)

type online_row = {
  window_idx : int;
  decisions_so_far : int;
  window_agreement_pct : float; (** agreement with the CFS heuristic in this window *)
  pushes_so_far : int;          (** quantized models pushed to the kernel so far *)
}

val ablation_online_training : unit -> online_row list
(** Ablation K: the paper's userspace training loop (§3.2 — "ML training
    could be performed in real-time in userspace … with models periodically
    quantized and pushed to the kernel for inference").  The scheduler
    bootstraps on the CFS heuristic while decisions accumulate; every push
    period a fresh MLP is trained in float space, quantized to Q16.16 and
    hot-swapped into the RMT model store; the decider then runs through the
    [can_migrate_task] RMT program.  Rows give the per-window agreement
    with the heuristic — the learning curve. *)

type table3_row = {
  net_mix : string;        (** "stream" | "mixed" | "incast" *)
  cc_system : string;      (** "cubic" | "bbr" | "rmt-ml" *)
  goodput_mbps : float;
  net_mean_fct_ms : float;
  net_p99_fct_ms : float;  (** exact 99th-percentile flow completion time *)
  net_fairness : float;    (** Jain index over per-flow delivery rates *)
  net_retransmits : int;
  net_incomplete : int;    (** flows censored at the horizon *)
  net_fallbacks : int;     (** breaker fallbacks served on the net.cc hook *)
  net_digest : int;        (** per-run decision digest (determinism checks) *)
}

val net_systems : string list
(** [["cubic"; "bbr"; "rmt-ml"]]. *)

val table3 :
  ?seed:int ->
  ?faults:(Rmt.Fault.point * float) list ->
  ?systems:string list ->
  unit ->
  table3_row list
(** Table 3 — learned congestion control on the [net.cc] decision point
    (DESIGN.md section 16).  Each (mix, system) combo over every
    {!Ksim.Workload_net} mix is one pool task
    running the full packet-level simulation; combos share nothing, so
    rows are bit-identical at every pool width.  [faults] defaults to the
    parsed [RKD_FAULTS] environment plan; pass [~faults:[]] for a clean
    run even under a chaos environment.  A non-empty plan is re-armed
    per task with {!Rmt.Fault.with_plan} keyed on the combo identity, so
    fault injection is width-deterministic too. *)

val table3_digest : table3_row list -> int
(** Fold of per-row digests and fallback counts — the cross-width
    equality witness used by [rkdctl net] and the tests. *)

val fleet_soak :
  ?seed:int ->
  ?faults:(Rmt.Fault.point * float) list ->
  ?storm:bool ->
  ?ticks:int ->
  unit ->
  Fleet.report
(** Drift-aware fleet control-plane soak (DESIGN.md section 17): create a
    {!Fleet}, run [ticks] control-loop iterations on the global pool,
    recover, report.  [faults] defaults to the parsed [RKD_FAULTS]
    environment plan and is re-armed per (shard, tick) task inside the
    fleet, so faulted soaks replay bit-identically at every pool width.
    [storm] switches to {!Fleet.storm_params} (every tenant drifts
    simultaneously). *)
