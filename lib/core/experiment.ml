(* Every fan-out below runs on the shared domain pool ([Par.global]).
   The determinism contract: each task is a pure function of the seed and
   its task identity — tasks build their own traces, prefetchers and Rng
   substreams ([Kml.Rng.split base index]) instead of sharing advancing
   state — so results are bit-identical at every pool width, including
   the sequential domains=1 fallback.  [test/test_par.ml] enforces this. *)

(* Tables 1 and 2 and every ablation run at this seed. *)
let seed = 42

let pmap f xs = Par.parallel_map (Par.global ()) f xs
let ptasks fs = Par.run_tasks (Par.global ()) fs

(* ------------------------------------------------------------------ *)
(* Table 1 — page prefetching                                           *)
(* ------------------------------------------------------------------ *)

type table1_row = {
  benchmark : string;
  system : string;
  accuracy_pct : float;
  coverage_pct : float;
  completion_s : float;
  faults : int;
}

let mem_config =
  { Ksim.Mem_sim.cache_pages = 2048;
    cpu_ns_per_access = 40_000;
    swap_service_ns = 50_000;
    max_prefetch_per_access = 32 }

let table1_traces ~seed =
  [ ("video-resize", Ksim.Workload_mem.video_resize ~rng:(Kml.Rng.create seed) ~pid:1 ());
    ("matrix-conv", Ksim.Workload_mem.matrix_conv ~pid:1 ()) ]

let row_of_result benchmark system (r : Ksim.Mem_sim.result) =
  { benchmark;
    system;
    accuracy_pct = 100.0 *. r.Ksim.Mem_sim.accuracy;
    coverage_pct = 100.0 *. r.Ksim.Mem_sim.coverage;
    completion_s = float_of_int r.Ksim.Mem_sim.completion_ns /. 1e9;
    faults = r.Ksim.Mem_sim.faults }

let table1 () =
  (* 3 prefetchers x 2 workloads, one pool task each.  Every task builds
     its own trace and prefetcher so nothing is shared across domains. *)
  let combos =
    List.concat_map
      (fun benchmark ->
        List.map (fun system -> (benchmark, system)) [ "linux"; "leap"; "rmt-ml" ])
      [ "video-resize"; "matrix-conv" ]
  in
  pmap
    (fun (benchmark, system) ->
      let trace = List.assoc benchmark (table1_traces ~seed) in
      let prefetcher =
        match system with
        | "linux" -> Ksim.Readahead.create ()
        | "leap" -> Ksim.Leap.create ~depth:4 ()
        | _ -> Prefetch_rmt.prefetcher (Prefetch_rmt.create ~seed ())
      in
      let r = Ksim.Mem_sim.run ~config:mem_config ~prefetcher trace in
      row_of_result benchmark system r)
    combos

(* ------------------------------------------------------------------ *)
(* Table 2 — scheduler mimicry                                          *)
(* ------------------------------------------------------------------ *)

type table2_row = {
  benchmark : string;
  system : string;
  accuracy_pct : float;
  jct_s : float;
}

let mlp_params = { Kml.Mlp.hidden = [ 32; 16 ]; epochs = 80; learning_rate = 0.03 }

let train_mimic ~rng ds =
  let train, test = Kml.Dataset.split ds ~rng ~train_fraction:0.7 in
  let mlp = Kml.Mlp.train ~params:mlp_params ~rng train in
  let acc = Kml.Metrics.accuracy_of ~predict:(Kml.Mlp.predict mlp) test in
  (mlp, acc, train, test)

let jct_with_decider ~workload ~decider_name decider =
  let r = Ksim.Sched_sim.run ~workload ~decider_name decider in
  float_of_int r.Ksim.Sched_sim.jct_ns /. 1e9

let table2_benchmark ~seed benchmark =
  let rng = Kml.Rng.create seed in
  let ds, linux = Ksim.Sched_sim.collect ~workload:benchmark () in
  let jct_linux = float_of_int linux.Ksim.Sched_sim.jct_ns /. 1e9 in
  (* The training chain is rng-sequential (full model -> permutation
     ranking -> lean model), but the two mimic simulations only read
     their trained models, so they fan out on the pool. *)
  let mlp_full, acc_full, _train, test = train_mimic ~rng ds in
  let q_full = Kml.Quantize.Qmlp.of_mlp mlp_full in
  let ranking =
    Kml.Feature_rank.permutation ~rng ~predict:(Kml.Mlp.predict mlp_full) test
  in
  let keep = Kml.Feature_rank.top_k ranking 2 in
  let ds_lean = Kml.Dataset.project ds ~keep in
  let mlp_lean, acc_lean, _, _ = train_mimic ~rng ds_lean in
  let q_lean = Kml.Quantize.Qmlp.of_mlp mlp_lean in
  let jcts =
    ptasks
      [ (fun () ->
          let full = Sched_rmt.create ~model:(Rmt.Model_store.Qmlp q_full) () in
          jct_with_decider ~workload:benchmark ~decider_name:"mlp-full"
            (Sched_rmt.decider full));
        (fun () ->
          let lean = Sched_rmt.create ~keep ~model:(Rmt.Model_store.Qmlp q_lean) () in
          jct_with_decider ~workload:benchmark ~decider_name:"mlp-lean"
            (Sched_rmt.decider lean)) ]
  in
  let jct_full, jct_lean =
    match jcts with [ f; l ] -> (f, l) | _ -> assert false
  in
  [ { benchmark; system = "mlp-full"; accuracy_pct = 100.0 *. acc_full; jct_s = jct_full };
    { benchmark; system = "mlp-lean"; accuracy_pct = 100.0 *. acc_lean; jct_s = jct_lean };
    { benchmark; system = "linux"; accuracy_pct = 100.0; jct_s = jct_linux } ]

let table2 () =
  List.concat (pmap (fun b -> table2_benchmark ~seed b) Ksim.Workload_cpu.names)

(* ------------------------------------------------------------------ *)
(* Ablation A — lean monitoring                                         *)
(* ------------------------------------------------------------------ *)

type lean_row = { n_features : int; accuracy_pct : float; reads_per_decision : float }

let ablation_lean_monitoring () =
  let rng = Kml.Rng.create seed in
  let ds, _ = Ksim.Sched_sim.collect ~workload:"streamcluster" () in
  let mlp_full, _, _, test = train_mimic ~rng ds in
  let ranking =
    Kml.Feature_rank.permutation ~rng ~predict:(Kml.Mlp.predict mlp_full) test
  in
  (* Each feature-count trains from its own index-keyed Rng substream
     (rather than threading one advancing rng through the sweep), so the
     five trainings are order-independent and fan out on the pool. *)
  pmap
    (fun (idx, k) ->
      let rng = Kml.Rng.split rng idx in
      let keep = Kml.Feature_rank.top_k ranking k in
      let ds_k = Kml.Dataset.project ds ~keep in
      let mlp_k, acc_k, _, _ = train_mimic ~rng ds_k in
      let q = Kml.Quantize.Qmlp.of_mlp mlp_k in
      let sched = Sched_rmt.create ~keep ~model:(Rmt.Model_store.Qmlp q) () in
      let _jct =
        jct_with_decider ~workload:"streamcluster" ~decider_name:"lean" (Sched_rmt.decider sched)
      in
      let stats = Sched_rmt.stats sched in
      { n_features = k;
        accuracy_pct = 100.0 *. acc_k;
        reads_per_decision = stats.Sched_rmt.reads_per_decision })
    (List.mapi (fun idx k -> (idx, k)) [ 15; 8; 4; 2; 1 ])

(* ------------------------------------------------------------------ *)
(* Ablation B — online training window                                  *)
(* ------------------------------------------------------------------ *)

type window_row = { retrain_period : int; accuracy_pct : float; coverage_pct : float }

let ablation_window () =
  pmap
    (fun retrain_period ->
      let trace = Ksim.Workload_mem.matrix_conv ~pid:1 () in
      let params = { Prefetch_rmt.default_params with retrain_period } in
      let ours = Prefetch_rmt.create ~params ~seed () in
      let r =
        Ksim.Mem_sim.run ~config:mem_config ~prefetcher:(Prefetch_rmt.prefetcher ours) trace
      in
      { retrain_period;
        accuracy_pct = 100.0 *. r.Ksim.Mem_sim.accuracy;
        coverage_pct = 100.0 *. r.Ksim.Mem_sim.coverage })
    [ 128; 256; 512; 1024; 2048; 4096 ]

(* ------------------------------------------------------------------ *)
(* Ablation C — quantization                                            *)
(* ------------------------------------------------------------------ *)

type quant_row = { benchmark : string; float_acc_pct : float; quant_acc_pct : float }

let ablation_quantization () =
  pmap
    (fun benchmark ->
      let rng = Kml.Rng.create seed in
      let ds, _ = Ksim.Sched_sim.collect ~workload:benchmark () in
      let mlp, acc, _, test = train_mimic ~rng ds in
      let q = Kml.Quantize.Qmlp.of_mlp mlp in
      let qacc = Kml.Metrics.accuracy_of ~predict:(Kml.Quantize.Qmlp.predict q) test in
      { benchmark; float_acc_pct = 100.0 *. acc; quant_acc_pct = 100.0 *. qacc })
    Ksim.Workload_cpu.names

(* ------------------------------------------------------------------ *)
(* Ablation D — adaptivity across a workload shift                      *)
(* ------------------------------------------------------------------ *)

type adapt_row = {
  phase : string;
  adaptive : bool;
  accuracy_pct : float;
  coverage_pct : float;
}

let ablation_adaptivity () =
  (* One pool task per adaptivity setting; the video -> conv phase pair
     inside a task is deliberately sequential state-carrying. *)
  List.concat
  @@ pmap
    (fun online ->
      let video = Ksim.Workload_mem.video_resize ~rng:(Kml.Rng.create seed) ~pid:1 () in
      let conv = Ksim.Workload_mem.matrix_conv ~pid:1 () in
      let ours = Prefetch_rmt.create ~seed () in
      let prefetcher = Prefetch_rmt.prefetcher ours in
      (* Phase 1 always trains online on video; at the shift the model is
         either frozen (online = false: the paper's strawman of a
         statically configured policy) or keeps retraining per window. *)
      let r1 = Ksim.Mem_sim.run ~config:mem_config ~prefetcher video in
      Prefetch_rmt.set_online ours online;
      let r2 = Ksim.Mem_sim.run ~config:mem_config ~reset:false ~prefetcher conv in
      [ { phase = "video";
          adaptive = online;
          accuracy_pct = 100.0 *. r1.Ksim.Mem_sim.accuracy;
          coverage_pct = 100.0 *. r1.Ksim.Mem_sim.coverage };
        { phase = "conv-after-shift";
          adaptive = online;
          accuracy_pct = 100.0 *. r2.Ksim.Mem_sim.accuracy;
          coverage_pct = 100.0 *. r2.Ksim.Mem_sim.coverage } ])
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Ablation E — distillation                                            *)
(* ------------------------------------------------------------------ *)

type distill_row = {
  model : string;
  accuracy_pct : float;
  fidelity_pct : float;
  macs : int;
  comparisons : int;
}

let ablation_distillation () =
  let rng = Kml.Rng.create seed in
  let ds, _ = Ksim.Sched_sim.collect ~workload:"fib" () in
  let mlp, acc_teacher, train, test = train_mimic ~rng ds in
  let teacher = Kml.Mlp.predict mlp in
  let extra = Kml.Distill.augment_inputs ~rng train ~n:(2 * Kml.Dataset.length train) in
  let student = Kml.Distill.to_tree ~teacher ~extra_inputs:extra train in
  (* The two student evaluations are independent reads of the trained
     tree; score them as parallel tasks. *)
  let acc_student, fidelity =
    match
      ptasks
        [ (fun () -> Kml.Metrics.accuracy_of ~predict:(Kml.Decision_tree.predict student) test);
          (fun () ->
            Kml.Distill.fidelity ~student:(Kml.Decision_tree.predict student) ~teacher test) ]
    with
    | [ a; f ] -> (a, f)
    | _ -> assert false
  in
  let teacher_cost = Kml.Model_cost.of_mlp_architecture (Kml.Mlp.architecture mlp) in
  let student_cost = Kml.Model_cost.of_tree student in
  [ { model = "teacher-mlp";
      accuracy_pct = 100.0 *. acc_teacher;
      fidelity_pct = 100.0;
      macs = teacher_cost.Kml.Model_cost.macs;
      comparisons = teacher_cost.Kml.Model_cost.comparisons };
    { model = "student-tree";
      accuracy_pct = 100.0 *. acc_student;
      fidelity_pct = 100.0 *. fidelity;
      macs = student_cost.Kml.Model_cost.macs;
      comparisons = student_cost.Kml.Model_cost.comparisons } ]

(* ------------------------------------------------------------------ *)
(* Ablation F — privacy                                                 *)
(* ------------------------------------------------------------------ *)

type privacy_row = {
  epsilon_milli : int;
  mean_abs_noise : float;
  queries_answered : int;
  queries_denied : int;
}

(* A program whose action is an aggregate context query (sum over 16
   monitor words) through a DP-charged helper of the given per-query cost,
   under a fixed total budget.  Sweeping the per-query epsilon shows the
   privacy/utility trade-off from both sides: cheap queries are noisy but
   plentiful; precise queries exhaust the budget quickly. *)
let privacy_program ~helper_id ~budget_milli =
  let open Rmt in
  let b = Builder.create ~name:"agg_query" ~vmem_size:1 () in
  Builder.add_capability b (Program.Privacy_budget { epsilon_milli = budget_milli });
  Builder.emit b (Insn.Ld_imm (1, Hooks.key_feature_base));
  Builder.emit b (Insn.Ld_imm (2, 16));
  Builder.emit b (Insn.Call helper_id);
  Builder.emit b Insn.Exit;
  Builder.finish b ()

let ablation_privacy () =
  let queries = 200 in
  let budget_milli = 100_000 in
  pmap
    (fun epsilon_milli ->
      let control = Rmt.Control.create ~seed () in
      (* Register an aggregate helper charging [epsilon_milli] per query. *)
      let helper_id =
        Rmt.Helper.register (Rmt.Control.helpers control)
          ~name:(Printf.sprintf "sum_eps%d" epsilon_milli)
          ~arity:2 ~privacy_cost:epsilon_milli
          (fun env args ->
            let base = args.(0) and len = args.(1) in
            let acc = ref 0 in
            for k = base to base + len - 1 do
              acc := !acc + Rmt.Ctxt.get env.Rmt.Helper.ctxt k
            done;
            !acc)
      in
      let vm =
        match Rmt.Control.install control (privacy_program ~helper_id ~budget_milli) with
        | Ok vm -> vm
        | Error e -> invalid_arg ("ablation_privacy: " ^ e)
      in
      let b = Rmt.Batch.create ~capacity:1 in
      let truth = ref 0 in
      for i = 0 to 15 do
        Rmt.Ctxt.set b.Rmt.Batch.ctxts.(0) (Hooks.key_feature_base + i) (i + 1);
        truth := !truth + i + 1
      done;
      let answered = ref 0 and denied = ref 0 and noise_total = ref 0.0 in
      for _ = 1 to queries do
        Rmt.Vm.invoke_batch vm b ~now:(fun () -> 0);
        if b.Rmt.Batch.denied.(0) > 0 then incr denied
        else begin
          incr answered;
          noise_total :=
            !noise_total +. float_of_int (abs (b.Rmt.Batch.results.(0) - !truth))
        end
      done;
      { epsilon_milli;
        mean_abs_noise =
          (if !answered = 0 then 0.0 else !noise_total /. float_of_int !answered);
        queries_answered = !answered;
        queries_denied = !denied })
    [ 200; 500; 1_000; 5_000; 20_000 ]

(* ------------------------------------------------------------------ *)
(* Figure 1 family — VM overhead                                        *)
(* ------------------------------------------------------------------ *)

type overhead_row = {
  engine : string;
  program : string;
  ns_per_invocation : float;
  steps_per_invocation : float;
}

type fig1_fixture = {
  collect : Rmt.Vm.t;
  predict : Rmt.Vm.t;
  tree : Kml.Decision_tree.t;
  one : Rmt.Batch.t;
}

(* A ctxt-heavy collect-style program and a model-consulting
   predict-style program mirroring the case-study datapath, the predict
   one consulting a tree over Prefetch_rmt's 32 delta classes, trained on
   512 seeded random samples. *)
let fig1_fixture engine =
  let params = Prefetch_rmt.default_params in
  let nf = params.Prefetch_rmt.history + 3 in
  let rng = Kml.Rng.create 7 in
  let ds = Kml.Dataset.create ~n_features:nf ~n_classes:32 in
  for _ = 1 to 512 do
    let features = Array.init nf (fun _ -> Kml.Rng.int rng 128) in
    Kml.Dataset.add ds { Kml.Dataset.features; label = Kml.Rng.int rng 4 }
  done;
  let tree = Kml.Decision_tree.train ds in
  let control = Rmt.Control.create ~engine () in
  let (_ : Rmt.Model_store.handle) =
    Rmt.Control.register_model control ~name:"m" (Rmt.Model_store.Tree tree)
  in
  let install ?model_names prog =
    match Rmt.Control.install control ?model_names prog with
    | Ok vm -> vm
    | Error e -> invalid_arg ("fig1_fixture: " ^ e)
  in
  let collect = install (Prefetch_rmt.build_collect_program params) in
  let predict = install ~model_names:[ "m" ] (Prefetch_rmt.build_predict_program params) in
  let one = Rmt.Batch.create ~capacity:1 in
  let ctxt = one.Rmt.Batch.ctxts.(0) in
  Rmt.Ctxt.set ctxt Hooks.key_page 1234;
  Rmt.Ctxt.set ctxt Hooks.key_last_page 1230;
  for i = 0 to nf - 1 do
    Rmt.Ctxt.set ctxt (Hooks.key_feature_base + i) (i + 1)
  done;
  { collect; predict; tree; one }

let vm_overhead () =
  let iterations = 50_000 in
  let interp = fig1_fixture Rmt.Vm.Interpreted and jit = fig1_fixture Rmt.Vm.Jit_compiled in
  let measure engine program one vm =
    let now () = 0 in
    (* warmup *)
    for _ = 1 to 1000 do
      Rmt.Vm.invoke_batch vm one ~now
    done;
    let steps_before = Rmt.Vm.total_steps vm in
    let t0 = Sys.time () in
    for _ = 1 to iterations do
      Rmt.Vm.invoke_batch vm one ~now
    done;
    let elapsed = Sys.time () -. t0 in
    let steps = Rmt.Vm.total_steps vm - steps_before in
    { engine;
      program;
      ns_per_invocation = elapsed *. 1e9 /. float_of_int iterations;
      steps_per_invocation = float_of_int steps /. float_of_int iterations }
  in
  [ measure "interpreted" "pf_collect" interp.one interp.collect;
    measure "jit" "pf_collect" jit.one jit.collect;
    measure "interpreted" "pf_predict" interp.one interp.predict;
    measure "jit" "pf_predict" jit.one jit.predict ]

(* ------------------------------------------------------------------ *)
(* Ablation G — in-kernel model families                                *)
(* ------------------------------------------------------------------ *)

type family_row = {
  family : string;
  accuracy_pct : float;
  f_macs : int;
  f_comparisons : int;
  f_memory_words : int;
  train_side : string;
}

let ablation_model_family () =
  let rng = Kml.Rng.create seed in
  let ds, _ = Ksim.Sched_sim.collect ~workload:"blackscholes" () in
  let train, test = Kml.Dataset.split ds ~rng ~train_fraction:0.7 in
  let row family predict cost train_side =
    let c : Kml.Model_cost.t = cost in
    { family;
      accuracy_pct = 100.0 *. Kml.Metrics.accuracy_of ~predict test;
      f_macs = c.Kml.Model_cost.macs;
      f_comparisons = c.Kml.Model_cost.comparisons;
      f_memory_words = c.Kml.Model_cost.memory_words;
      train_side }
  in
  (* The four family trainings are independent given the split; each
     stochastic trainer draws from its own index-keyed substream. *)
  ptasks
    [ (fun () ->
        let tree = Kml.Decision_tree.train train in
        row "tree" (Kml.Decision_tree.predict tree) (Kml.Model_cost.of_tree tree)
          "kernel (integer)");
      (fun () ->
        let mlp = Kml.Mlp.train ~params:mlp_params ~rng:(Kml.Rng.split rng 1) train in
        let qmlp = Kml.Quantize.Qmlp.of_mlp mlp in
        row "qmlp" (Kml.Quantize.Qmlp.predict qmlp) (Kml.Model_cost.of_qmlp qmlp)
          "userspace (float)");
      (fun () ->
        let svm = Kml.Linear.Svm.train ~rng:(Kml.Rng.split rng 2) train in
        row "int-svm" (Kml.Linear.Svm.predict svm) (Kml.Model_cost.of_svm svm)
          "userspace (float)");
      (fun () ->
        let perceptron =
          Kml.Linear.Perceptron.train ~rng:(Kml.Rng.split rng 3) train
        in
        (* The perceptron's cost is that of a linear scorer over 15 features. *)
        let perceptron_cost =
          { Kml.Model_cost.macs = 2 * 16; comparisons = 2; memory_words = 4 * 16 }
        in
        row "perceptron" (Kml.Linear.Perceptron.predict perceptron) perceptron_cost
          "kernel (integer)") ]

(* ------------------------------------------------------------------ *)
(* Ablation H — cost-bounded NAS                                        *)
(* ------------------------------------------------------------------ *)

type nas_row = {
  candidate : string;
  val_accuracy_pct : float;
  n_macs : int;
  admitted : bool;
}

let ablation_nas () =
  let rng = Kml.Rng.create seed in
  let ds, _ = Ksim.Sched_sim.collect ~workload:"matmul" () in
  let train, validation = Kml.Dataset.split ds ~rng ~train_fraction:0.7 in
  (* A tight nanosecond-path budget: the hand-picked Table 2 architecture
     does not fit, so the verifier would reject it at this hook. *)
  let budget = { Kml.Model_cost.fast_path_budget with Kml.Model_cost.max_macs = 600 } in
  (* Hand-picked baseline: the 32-16 architecture used by Table 2. *)
  let baseline = Kml.Mlp.train ~params:mlp_params ~rng train in
  let baseline_cost = Kml.Model_cost.of_mlp_architecture (Kml.Mlp.architecture baseline) in
  let baseline_row =
    { candidate =
        "hand-picked "
        ^ String.concat "-" (List.map string_of_int (Kml.Mlp.architecture baseline));
      val_accuracy_pct =
        100.0 *. Kml.Metrics.accuracy_of ~predict:(Kml.Mlp.predict baseline) validation;
      n_macs = baseline_cost.Kml.Model_cost.macs;
      admitted = Kml.Model_cost.within baseline_cost budget }
  in
  let result = Kml.Nas.search ~rng ~budget ~train ~validation () in
  let explored_rows =
    List.filteri (fun i _ -> i < 3) result.Kml.Nas.explored
    |> List.map (fun (c : Kml.Nas.candidate) ->
           { candidate =
               "nas " ^ String.concat "-" (List.map string_of_int c.Kml.Nas.hidden);
             val_accuracy_pct = 100.0 *. c.Kml.Nas.val_accuracy;
             n_macs = c.Kml.Nas.cost.Kml.Model_cost.macs;
             admitted = true })
  in
  baseline_row :: explored_rows

(* ------------------------------------------------------------------ *)
(* Ablation I — match granularity (per-inode vs per-process entries)    *)
(* ------------------------------------------------------------------ *)

type granularity_row = {
  g_system : string;
  granularity : string;
  g_accuracy_pct : float;
  g_coverage_pct : float;
}

let ablation_granularity () =
  let combos =
    List.concat_map
      (fun granularity ->
        List.map (fun g_system -> (granularity, g_system)) [ "linux"; "leap"; "rmt-ml" ])
      [ "per-inode"; "per-process" ]
  in
  pmap
    (fun (granularity, g_system) ->
      let per_inode = Ksim.Workload_mem.file_streams ~rng:(Kml.Rng.create seed) () in
      let trace =
        if granularity = "per-inode" then per_inode
        else Ksim.Workload_mem.retag per_inode ~pid:1
      in
      let prefetcher =
        match g_system with
        | "linux" -> Ksim.Readahead.create ()
        | "leap" -> Ksim.Leap.create ~depth:8 ()
        | _ -> Prefetch_rmt.prefetcher (Prefetch_rmt.create ~seed ())
      in
      let r = Ksim.Mem_sim.run ~config:mem_config ~prefetcher trace in
      { g_system;
        granularity;
        g_accuracy_pct = 100.0 *. r.Ksim.Mem_sim.accuracy;
        g_coverage_pct = 100.0 *. r.Ksim.Mem_sim.coverage })
    combos

(* ------------------------------------------------------------------ *)
(* Ablation J — cross-application producer/consumer coupling            *)
(* ------------------------------------------------------------------ *)

type cross_row = {
  x_system : string;
  x_accuracy_pct : float;
  x_coverage_pct : float;
  x_completion_s : float;
}

let ablation_cross_app () =
  let config = { mem_config with Ksim.Mem_sim.cache_pages = 512 } in
  pmap
    (fun x_system ->
      let trace =
        Ksim.Workload_mem.producer_consumer ~rng:(Kml.Rng.create seed) ~producer:1
          ~consumer:2 ()
      in
      let prefetcher =
        match x_system with
        | "linux" -> Ksim.Readahead.create ()
        | "leap" -> Ksim.Leap.create ~depth:8 ()
        | "rmt-ml" -> Prefetch_rmt.prefetcher (Prefetch_rmt.create ~seed ())
        | _ -> Cross_app.prefetcher (Cross_app.create ())
      in
      let r = Ksim.Mem_sim.run ~config ~prefetcher trace in
      { x_system;
        x_accuracy_pct = 100.0 *. r.Ksim.Mem_sim.accuracy;
        x_coverage_pct = 100.0 *. r.Ksim.Mem_sim.coverage;
        x_completion_s = float_of_int r.Ksim.Mem_sim.completion_ns /. 1e9 })
    [ "linux"; "leap"; "rmt-ml"; "cross-app" ]

(* ------------------------------------------------------------------ *)
(* Ablation K — real-time userspace training with periodic model pushes *)
(* ------------------------------------------------------------------ *)

type online_row = {
  window_idx : int;
  decisions_so_far : int;
  window_agreement_pct : float;
  pushes_so_far : int;
}

let ablation_online_training () =
  let rng = Kml.Rng.create seed in
  let push_period = 600 in
  let window = 300 in
  (* Bootstrap model: mimic nothing yet (never migrate); replaced by the
     first push.  The slot's arity is fixed at 15 features. *)
  let bootstrap =
    Rmt.Model_store.Fn
      { n_features = Ksim.Lb_features.n_features;
        cost = Kml.Model_cost.zero;
        f = (fun _ -> 0) }
  in
  let sched = Sched_rmt.create ~model:bootstrap () in
  let rmt_decider = Sched_rmt.decider sched in
  let ds = Kml.Dataset.create ~n_features:Ksim.Lb_features.n_features ~n_classes:2 in
  let pushes = ref 0 in
  let since_push = ref 0 in
  let decisions = ref 0 in
  let window_agree = ref 0 and window_n = ref 0 in
  let rows = ref [] in
  let decider ~features ~heuristic =
    incr decisions;
    Kml.Dataset.add ds
      { Kml.Dataset.features = Array.copy features; label = (if heuristic then 1 else 0) };
    incr since_push;
    if !since_push >= push_period then begin
      since_push := 0;
      (* Userspace: train in float, quantize, push to the kernel slot. *)
      let params = { Kml.Mlp.default_params with hidden = [ 16 ]; epochs = 30 } in
      let mlp = Kml.Mlp.train ~params ~rng ds in
      let q = Kml.Quantize.Qmlp.of_mlp mlp in
      (match Sched_rmt.update_model sched (Rmt.Model_store.Qmlp q) with
       | Ok () -> incr pushes
       | Error _ -> ())
    end;
    let decision =
      if !pushes = 0 then heuristic (* bootstrapping phase *)
      else rmt_decider ~features ~heuristic
    in
    if decision = heuristic then incr window_agree;
    incr window_n;
    if !window_n >= window then begin
      rows :=
        { window_idx = List.length !rows;
          decisions_so_far = !decisions;
          window_agreement_pct = 100.0 *. float_of_int !window_agree /. float_of_int !window_n;
          pushes_so_far = !pushes }
        :: !rows;
      window_agree := 0;
      window_n := 0
    end;
    decision
  in
  let (_ : Ksim.Sched_sim.result) =
    Ksim.Sched_sim.run ~workload:"streamcluster" ~decider_name:"online" decider
  in
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Table 3 — learned congestion control                                 *)
(* ------------------------------------------------------------------ *)

type table3_row = {
  net_mix : string;
  cc_system : string;
  goodput_mbps : float;
  net_mean_fct_ms : float;
  net_p99_fct_ms : float;
  net_fairness : float;
  net_retransmits : int;
  net_incomplete : int;
  net_fallbacks : int;
  net_digest : int;
}

let net_systems = [ "cubic"; "bbr"; "rmt-ml" ]

let idx_in names x =
  let rec go i = function
    | [] -> 0
    | y :: tl -> if String.equal x y then i else go (i + 1) tl
  in
  go 0 names

let table3_task ~seed ~plan (mix_name, system) =
  let mix_idx = idx_in Ksim.Workload_net.names mix_name in
  let sys_idx = idx_in net_systems system in
  let body () =
    let scenario =
      Ksim.Workload_net.by_name ~rng:(Kml.Rng.create (seed lxor 0x3a7)) mix_name
    in
    let net = ref None in
    let make_cc =
      match system with
      | "cubic" -> fun (_ : Ksim.Flow.spec) -> Ksim.Cc.cubic ()
      | "bbr" -> fun (_ : Ksim.Flow.spec) -> Ksim.Cc.bbr ()
      | "rmt-ml" ->
          let n = Net_rmt.create ~seed:(seed lxor (0x9e37 + mix_idx)) () in
          net := Some n;
          Net_rmt.make_cc n
      | other -> invalid_arg ("table3: unknown cc system " ^ other)
    in
    let r =
      Ksim.Net_sim.run ~link:scenario.Ksim.Workload_net.link ~make_cc
        scenario.Ksim.Workload_net.flows
    in
    let fallbacks =
      match !net with
      | None -> 0
      | Some n -> (Net_rmt.stats n).Net_rmt.fallback_decisions
    in
    { net_mix = mix_name;
      cc_system = system;
      goodput_mbps = r.Ksim.Net_sim.goodput_mbps;
      net_mean_fct_ms = r.Ksim.Net_sim.mean_fct_ms;
      net_p99_fct_ms = r.Ksim.Net_sim.p99_fct_ms;
      net_fairness = r.Ksim.Net_sim.fairness;
      net_retransmits = r.Ksim.Net_sim.retransmits;
      net_incomplete = r.Ksim.Net_sim.incomplete;
      net_fallbacks = fallbacks;
      net_digest = r.Ksim.Net_sim.digest }
  in
  (* Each task owns a domain-local fault plan seeded by its combo identity,
     so injected faults are bit-identical at every pool width (the global
     RKD_FAULTS plan draws from one process-wide rng and is not). *)
  match plan with
  | [] -> Rmt.Fault.without body
  | specs ->
      Rmt.Fault.with_plan
        ~seed:(((seed * 31) + (mix_idx * 7) + sys_idx) land 0x3fffffff)
        specs body

let table3 ?(seed = 42) ?faults ?(systems = net_systems) () =
  let plan = match faults with Some p -> p | None -> Rmt.Fault.env_plan in
  let combos =
    List.concat_map (fun m -> List.map (fun s -> (m, s)) systems) Ksim.Workload_net.names
  in
  pmap (table3_task ~seed ~plan) combos

let table3_digest rows =
  List.fold_left
    (fun acc r ->
      Ksim.Net_sim.mix (Ksim.Net_sim.mix acc r.net_digest) r.net_fallbacks)
    0 rows

(* ------------------------------------------------------------------ *)
(* Fleet soak — drift-aware continuous-learning control plane          *)
(* ------------------------------------------------------------------ *)

let fleet_soak ?(seed = 0xf1ee7) ?faults ?(storm = false) ?(ticks = 160) () =
  let faults = match faults with Some f -> f | None -> Rmt.Fault.env_plan in
  let fault_specs = if faults = [] then None else Some faults in
  let params = if storm then Fleet.storm_params else Fleet.default_params in
  Fleet.soak ~params ?fault_specs ~ticks ~seed ()
