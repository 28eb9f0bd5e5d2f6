(** Rendering of experiment results, including side-by-side comparison with
    the numbers the paper reports (EXPERIMENTS.md records the same). *)

val paper_table1 : (string * string * float * float * float) list
(** (benchmark, system, accuracy %, coverage %, completion s) as printed in
    the paper's Table 1. *)

val paper_table2 : (string * string * float * float) list
(** (benchmark, system, accuracy %, JCT s) as printed in the paper's
    Table 2 (accuracy for "linux" is 100 by definition). *)

val print_table1 : Format.formatter -> Experiment.table1_row list -> unit
val print_table2 : Format.formatter -> Experiment.table2_row list -> unit
val print_overhead : Format.formatter -> Experiment.overhead_row list -> unit

val shape_checks : Experiment.table1_row list -> Experiment.table2_row list -> (string * bool) list
(** The qualitative claims that must hold for the reproduction to count
    (DESIGN.md §4): each is (description, holds?). *)

val ablations : Format.formatter -> unit
(** Run every ablation (A-K) in order and print each one's rows — the
    single list behind [rkdctl ablations] and the macro bench. *)

val print_table3 : Format.formatter -> Experiment.table3_row list -> unit
(** Table 3 (DESIGN.md section 16): goodput / FCT / fairness per workload
    mix and congestion-control system, plus breaker-fallback counts. *)

val net_checks : Experiment.table3_row list -> (string * bool) list
(** Qualitative claims for the network decision point: on every mix where
    all three systems ran, the learned controller must beat the worse of
    the two stock baselines on goodput or p99 FCT, and finish every flow. *)

val print_fleet : Format.formatter -> Fleet.report -> unit
(** Per-tenant fleet-soak table plus summary (DESIGN.md section 17). *)

val fleet_checks : ?faulted:bool -> Fleet.report -> (string * bool) list
(** Fleet invariants: zero uncaught exceptions, breakers re-closed, no
    install thrash (at most 2 rollout attempts per episode), every rollback/episode/install accounted in the
    per-tenant telemetry; clean runs additionally require detected drift
    episodes, promoted rollouts and recovered mean accuracy.  [faulted]
    (use when an [RKD_FAULTS] plan is active) keeps only the robustness
    half, mirroring {!net_checks}' treatment. *)
