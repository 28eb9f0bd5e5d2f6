let paper_table1 =
  [ ("video-resize", "linux", 40.69, 65.09, 24.60);
    ("video-resize", "leap", 45.40, 66.81, 23.02);
    ("video-resize", "rmt-ml", 78.89, 84.13, 17.79);
    ("matrix-conv", "linux", 12.50, 19.28, 31.74);
    ("matrix-conv", "leap", 48.86, 65.62, 17.48);
    ("matrix-conv", "rmt-ml", 92.91, 88.51, 13.90) ]

let paper_table2 =
  [ ("blackscholes", "mlp-full", 99.08, 19.010);
    ("blackscholes", "mlp-lean", 94.0, 18.770);
    ("blackscholes", "linux", 100.0, 18.679);
    ("streamcluster", "mlp-full", 99.38, 58.136);
    ("streamcluster", "mlp-lean", 94.3, 57.387);
    ("streamcluster", "linux", 100.0, 57.362);
    ("fib", "mlp-full", 99.81, 19.567);
    ("fib", "mlp-lean", 99.7, 19.533);
    ("fib", "linux", 100.0, 19.543);
    ("matmul", "mlp-full", 99.7, 16.520);
    ("matmul", "mlp-lean", 99.6, 16.514);
    ("matmul", "linux", 100.0, 16.337) ]

let hr fmt = Format.fprintf fmt "  %s@." (String.make 76 '-')

let print_table1 fmt rows =
  Format.fprintf fmt "Table 1 — page prefetching (measured vs. paper)@.";
  hr fmt;
  Format.fprintf fmt "  %-14s %-8s %18s %18s %16s@." "benchmark" "system" "accuracy %"
    "coverage %" "completion s";
  hr fmt;
  List.iter
    (fun (r : Experiment.table1_row) ->
      let paper =
        List.find_opt
          (fun (b, s, _, _, _) -> b = r.benchmark && s = r.system)
          paper_table1
      in
      let pa, pc, pt =
        match paper with Some (_, _, a, c, t) -> (a, c, t) | None -> (nan, nan, nan)
      in
      Format.fprintf fmt "  %-14s %-8s %8.2f (p %5.1f) %8.2f (p %5.1f) %7.3f (p %5.1f)@."
        r.benchmark r.system r.accuracy_pct pa r.coverage_pct pc r.completion_s pt)
    rows;
  hr fmt

let print_table2 fmt rows =
  Format.fprintf fmt "Table 2 — scheduler mimicry (measured vs. paper)@.";
  hr fmt;
  Format.fprintf fmt "  %-14s %-9s %20s %20s@." "benchmark" "system" "accuracy %" "JCT s";
  hr fmt;
  List.iter
    (fun (r : Experiment.table2_row) ->
      let paper =
        List.find_opt (fun (b, s, _, _) -> b = r.benchmark && s = r.system) paper_table2
      in
      let pa, pj = match paper with Some (_, _, a, j) -> (a, j) | None -> (nan, nan) in
      Format.fprintf fmt "  %-14s %-9s %9.2f (p %6.2f) %9.3f (p %6.2f)@." r.benchmark
        r.system r.accuracy_pct pa r.jct_s pj)
    rows;
  hr fmt

let print_lean fmt rows =
  Format.fprintf fmt "Ablation A — lean monitoring (streamcluster mimic)@.";
  Format.fprintf fmt "  %-12s %12s %22s@." "features" "accuracy %" "ctxt reads/decision";
  List.iter
    (fun (r : Experiment.lean_row) ->
      Format.fprintf fmt "  %-12d %12.2f %22.2f@." r.n_features r.accuracy_pct
        r.reads_per_decision)
    rows

let print_window fmt rows =
  Format.fprintf fmt "Ablation B — online retrain period (matrix-conv)@.";
  Format.fprintf fmt "  %-16s %12s %12s@." "retrain period" "accuracy %" "coverage %";
  List.iter
    (fun (r : Experiment.window_row) ->
      Format.fprintf fmt "  %-16d %12.2f %12.2f@." r.retrain_period r.accuracy_pct
        r.coverage_pct)
    rows

let print_quant fmt rows =
  Format.fprintf fmt "Ablation C — quantization penalty (float vs Q16.16 MLP)@.";
  Format.fprintf fmt "  %-14s %12s %12s %8s@." "benchmark" "float %" "quant %" "drop";
  List.iter
    (fun (r : Experiment.quant_row) ->
      Format.fprintf fmt "  %-14s %12.2f %12.2f %8.2f@." r.benchmark r.float_acc_pct
        r.quant_acc_pct
        (r.float_acc_pct -. r.quant_acc_pct))
    rows

let print_adapt fmt rows =
  Format.fprintf fmt "Ablation D — adaptivity across a video->conv workload shift@.";
  Format.fprintf fmt "  %-18s %-10s %12s %12s@." "phase" "adaptive" "accuracy %" "coverage %";
  List.iter
    (fun (r : Experiment.adapt_row) ->
      Format.fprintf fmt "  %-18s %-10b %12.2f %12.2f@." r.phase r.adaptive r.accuracy_pct
        r.coverage_pct)
    rows

let print_distill fmt rows =
  Format.fprintf fmt "Ablation E — distillation (fib mimic)@.";
  Format.fprintf fmt "  %-14s %12s %12s %8s %12s@." "model" "accuracy %" "fidelity %" "macs"
    "comparisons";
  List.iter
    (fun (r : Experiment.distill_row) ->
      Format.fprintf fmt "  %-14s %12.2f %12.2f %8d %12d@." r.model r.accuracy_pct
        r.fidelity_pct r.macs r.comparisons)
    rows

let print_privacy fmt rows =
  Format.fprintf fmt "Ablation F — DP budget vs. aggregate-query utility@.";
  Format.fprintf fmt "  %-16s %16s %12s %10s@." "epsilon (milli)" "mean |noise|" "answered"
    "denied";
  List.iter
    (fun (r : Experiment.privacy_row) ->
      Format.fprintf fmt "  %-16d %16.2f %12d %10d@." r.epsilon_milli r.mean_abs_noise
        r.queries_answered r.queries_denied)
    rows

let print_overhead fmt rows =
  Format.fprintf fmt "Figure 1 family — VM overhead per invocation@.";
  Format.fprintf fmt "  %-12s %-12s %16s %16s@." "engine" "program" "ns/invocation"
    "steps/invocation";
  List.iter
    (fun (r : Experiment.overhead_row) ->
      Format.fprintf fmt "  %-12s %-12s %16.1f %16.1f@." r.engine r.program
        r.ns_per_invocation r.steps_per_invocation)
    rows

let find1 rows benchmark system =
  List.find_opt
    (fun (r : Experiment.table1_row) -> r.benchmark = benchmark && r.system = system)
    rows

let shape_checks t1 t2 =
  let acc b s = match find1 t1 b s with Some r -> r.accuracy_pct | None -> nan in
  let cov b s = match find1 t1 b s with Some r -> r.coverage_pct | None -> nan in
  let jct b s = match find1 t1 b s with Some r -> r.completion_s | None -> nan in
  let t2_acc b s =
    match
      List.find_opt (fun (r : Experiment.table2_row) -> r.benchmark = b && r.system = s) t2
    with
    | Some r -> r.accuracy_pct
    | None -> nan
  in
  let t2_jct b s =
    match
      List.find_opt (fun (r : Experiment.table2_row) -> r.benchmark = b && r.system = s) t2
    with
    | Some r -> r.jct_s
    | None -> nan
  in
  let benches2 = Ksim.Workload_cpu.names in
  [ ( "T1 video: ours > leap >= linux (accuracy)",
      acc "video-resize" "rmt-ml" > acc "video-resize" "leap"
      && acc "video-resize" "leap" >= acc "video-resize" "linux" );
    ( "T1 conv: ours > leap > linux (accuracy)",
      acc "matrix-conv" "rmt-ml" > acc "matrix-conv" "leap"
      && acc "matrix-conv" "leap" > acc "matrix-conv" "linux" );
    ( "T1 both: ours highest coverage",
      cov "video-resize" "rmt-ml" > cov "video-resize" "leap"
      && cov "matrix-conv" "rmt-ml" > cov "matrix-conv" "leap" );
    ( "T1 both: ours fastest completion",
      jct "video-resize" "rmt-ml" < jct "video-resize" "linux"
      && jct "video-resize" "rmt-ml" < jct "video-resize" "leap"
      && jct "matrix-conv" "rmt-ml" < jct "matrix-conv" "linux"
      && jct "matrix-conv" "rmt-ml" < jct "matrix-conv" "leap" );
    ( "T1: accuracy gap larger on conv than video (vs linux)",
      acc "matrix-conv" "rmt-ml" -. acc "matrix-conv" "linux"
      > acc "video-resize" "rmt-ml" -. acc "video-resize" "linux" );
    ( "T2: full-featured MLP >= 95% mimic accuracy everywhere",
      List.for_all (fun b -> t2_acc b "mlp-full" >= 95.0) benches2 );
    ( "T2: lean MLP >= 89% mimic accuracy everywhere",
      List.for_all (fun b -> t2_acc b "mlp-lean" >= 89.0) benches2 );
    ( "T2: ML JCT within 25% of Linux everywhere",
      List.for_all
        (fun b ->
          let linux = t2_jct b "linux" in
          Float.abs (t2_jct b "mlp-full" -. linux) /. linux < 0.25
          && Float.abs (t2_jct b "mlp-lean" -. linux) /. linux < 0.25)
        benches2 ) ]

let print_family fmt rows =
  Format.fprintf fmt "Ablation G — in-kernel model families (blackscholes mimic)@.";
  Format.fprintf fmt "  %-12s %10s %8s %13s %10s  %s@." "family" "accuracy" "macs"
    "comparisons" "memory" "training";
  List.iter
    (fun (r : Experiment.family_row) ->
      Format.fprintf fmt "  %-12s %9.2f%% %8d %13d %10d  %s@." r.family r.accuracy_pct
        r.f_macs r.f_comparisons r.f_memory_words r.train_side)
    rows

let print_nas fmt rows =
  Format.fprintf fmt "Ablation H — cost-bounded NAS under the fast-path budget@.";
  Format.fprintf fmt "  %-24s %14s %8s %10s@." "candidate" "val accuracy" "macs" "admitted";
  List.iter
    (fun (r : Experiment.nas_row) ->
      Format.fprintf fmt "  %-24s %13.2f%% %8d %10b@." r.candidate r.val_accuracy_pct
        r.n_macs r.admitted)
    rows

let print_granularity fmt rows =
  Format.fprintf fmt "Ablation I — match granularity on an interleaved multi-file workload@.";
  Format.fprintf fmt "  %-10s %-14s %12s %12s@." "system" "granularity" "accuracy %"
    "coverage %";
  List.iter
    (fun (r : Experiment.granularity_row) ->
      Format.fprintf fmt "  %-10s %-14s %12.2f %12.2f@." r.g_system r.granularity
        r.g_accuracy_pct r.g_coverage_pct)
    rows

let print_cross fmt rows =
  Format.fprintf fmt
    "Ablation J — cross-application coupling (producer/consumer shared buffer)@.";
  Format.fprintf fmt "  %-12s %12s %12s %14s@." "system" "accuracy %" "coverage %"
    "completion s";
  List.iter
    (fun (r : Experiment.cross_row) ->
      Format.fprintf fmt "  %-12s %12.2f %12.2f %14.3f@." r.x_system r.x_accuracy_pct
        r.x_coverage_pct r.x_completion_s)
    rows

let print_online fmt rows =
  Format.fprintf fmt
    "Ablation K — userspace training loop with periodic quantized pushes@.";
  Format.fprintf fmt "  %-8s %12s %14s %8s@." "window" "decisions" "agreement %" "pushes";
  List.iter
    (fun (r : Experiment.online_row) ->
      Format.fprintf fmt "  %-8d %12d %14.2f %8d@." r.window_idx r.decisions_so_far
        r.window_agreement_pct r.pushes_so_far)
    rows

let ablations fmt =
  print_lean fmt (Experiment.ablation_lean_monitoring ());
  print_window fmt (Experiment.ablation_window ());
  print_quant fmt (Experiment.ablation_quantization ());
  print_adapt fmt (Experiment.ablation_adaptivity ());
  print_distill fmt (Experiment.ablation_distillation ());
  print_privacy fmt (Experiment.ablation_privacy ());
  print_family fmt (Experiment.ablation_model_family ());
  print_nas fmt (Experiment.ablation_nas ());
  print_granularity fmt (Experiment.ablation_granularity ());
  print_cross fmt (Experiment.ablation_cross_app ());
  print_online fmt (Experiment.ablation_online_training ())

let print_table3 fmt rows =
  Format.fprintf fmt "Table 3 — learned congestion control (net.cc decision point)@.";
  hr fmt;
  Format.fprintf fmt "  %-8s %-8s %10s %10s %10s %6s %8s %9s@." "mix" "system"
    "goodput" "mean fct" "p99 fct" "jain" "rtx" "fallback";
  Format.fprintf fmt "  %-8s %-8s %10s %10s %10s %6s %8s %9s@." "" "" "Mbit/s" "ms"
    "ms" "" "" "";
  hr fmt;
  List.iter
    (fun (r : Experiment.table3_row) ->
      Format.fprintf fmt "  %-8s %-8s %10.2f %10.1f %10.1f %6.3f %8d %9d@."
        r.net_mix r.cc_system r.goodput_mbps r.net_mean_fct_ms r.net_p99_fct_ms
        r.net_fairness r.net_retransmits r.net_fallbacks)
    rows;
  hr fmt

let net_checks rows =
  let find mix system =
    List.find_opt
      (fun (r : Experiment.table3_row) ->
        r.Experiment.net_mix = mix && r.Experiment.cc_system = system)
      rows
  in
  let mixes =
    List.filter
      (fun m ->
        List.for_all (fun s -> find m s <> None) Experiment.net_systems)
      (List.sort_uniq compare
         (List.map (fun (r : Experiment.table3_row) -> r.Experiment.net_mix) rows))
  in
  List.concat_map
    (fun m ->
      let get s f = match find m s with Some r -> f r | None -> nan in
      let goodput s = get s (fun r -> r.Experiment.goodput_mbps) in
      let p99 s = get s (fun r -> r.Experiment.net_p99_fct_ms) in
      let worse_goodput = Float.min (goodput "cubic") (goodput "bbr") in
      let worse_p99 = Float.max (p99 "cubic") (p99 "bbr") in
      let complete =
        match find m "rmt-ml" with
        | Some r -> r.Experiment.net_incomplete = 0
        | None -> false
      in
      [ ( Printf.sprintf "T3 %s: learned beats worse baseline (goodput or p99 FCT)" m,
          goodput "rmt-ml" > worse_goodput || p99 "rmt-ml" < worse_p99 );
        (Printf.sprintf "T3 %s: learned completes every flow" m, complete) ])
    mixes

let print_fleet fmt (r : Fleet.report) =
  Format.fprintf fmt "Fleet soak — drift-aware control plane (DESIGN.md section 17)@.";
  hr fmt;
  Format.fprintf fmt "  %-6s %9s %9s %9s %9s %9s %7s %9s@." "tenant" "accuracy" "episodes"
    "installs" "promoted" "rollback" "defer" "attempts";
  hr fmt;
  Array.iter
    (fun (v : Fleet.tenant_view) ->
      Format.fprintf fmt "  %-6d %8.1f%% %9d %9d %9d %9d %7d %9d@." v.Fleet.t_id
        (float_of_int v.Fleet.t_accuracy_milli /. 10.0)
        v.Fleet.t_episodes v.Fleet.t_installs v.Fleet.t_promotions v.Fleet.t_rollbacks
        v.Fleet.t_deferred v.Fleet.t_max_attempts)
    r.Fleet.per_tenant;
  hr fmt;
  Format.fprintf fmt
    "  %d ticks, %d events, %d episodes, %d installs, %d promotions, %d rollbacks, %d deferred@."
    r.Fleet.ticks r.Fleet.events r.Fleet.episodes r.Fleet.installs r.Fleet.promotions
    r.Fleet.rollbacks r.Fleet.deferred;
  Format.fprintf fmt
    "  breakers: %d opens, reclosed=%b; fallbacks %d; mean accuracy %.1f%%; digest %016x@."
    r.Fleet.breaker_opens r.Fleet.breakers_reclosed r.Fleet.fallback_served
    (float_of_int r.Fleet.mean_accuracy_milli /. 10.0)
    r.Fleet.digest

let fleet_checks ?(faulted = false) (r : Fleet.report) =
  let attempts_bound = 2 in
  let sum f = Array.fold_left (fun acc v -> acc + f v) 0 r.Fleet.per_tenant in
  let accounted =
    sum (fun v -> v.Fleet.t_rollbacks) = r.Fleet.rollbacks
    && sum (fun v -> v.Fleet.t_episodes) = r.Fleet.episodes
    && sum (fun v -> v.Fleet.t_installs) = r.Fleet.installs
    && sum (fun v -> v.Fleet.t_promotions) = r.Fleet.promotions
  in
  let base =
    [ ("fleet: no uncaught exceptions", r.Fleet.uncaught = 0);
      ("fleet: every shard breaker re-closed", r.Fleet.breakers_reclosed);
      ( Printf.sprintf "fleet: no install thrash (<= %d attempts/episode)" attempts_bound,
        r.Fleet.max_attempts <= attempts_bound );
      ("fleet: every rollback accounted in telemetry", accounted) ]
  in
  (* Under a chaos plan the loop degrades to stock heuristics by design,
     so drift-recovery shape checks only gate clean runs. *)
  if faulted then base
  else
    base
    @ [ ("fleet: drift episodes detected", r.Fleet.episodes > 0);
        ("fleet: staged rollouts promoted", r.Fleet.promotions > 0);
        ("fleet: mean accuracy recovered", r.Fleet.mean_accuracy_milli >= 750) ]
