(* Benchmark harness.

   Usage:
     bench/main.exe [micro] [path] -- Bechamel microbenchmarks
                                      (default path: BENCH_micro.json)
     bench/main.exe macro [path]   -- table1/table2/ablations/net/fleet
                                      wall times at domains=1 vs
                                      domains=N (RKD_DOMAINS or the core
                                      count; default path: BENCH_macro.json)

   Each mode makes one measuring pass, prints its table, writes its json
   and then applies its gates to the numbers it has just measured,
   exiting 1 if one fails.  Every gate is a ratio of two measurements from the same
   run, so it does not depend on the host's speed.

   The tables, ablations and Figure 1 overhead rows themselves are
   printed by [rkdctl table1|table2|ablations|overhead|shapes].

   The Bechamel suite carries one Test.make group per paper table (the
   per-invocation datapath cost behind that table's system) plus the
   Figure 1 interpreter-vs-JIT comparison. *)

(* Nanoseconds for the loop rows, bound before [Toolkit] shadows the
   clock's module name. *)
let clock_ns = Monotonic_clock.now

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Microbenchmark fixtures                                              *)
(* ------------------------------------------------------------------ *)

(* One full online-training window shaped like Prefetch_rmt's: 6144
   samples of eight deltas clamped to +-4096 (mostly short strides), page
   mod 64, (page / 64) mod 64 and a horizon of 1..8, labelled with a
   noisy function of the newest delta and the horizon over its 32 delta
   classes, trained as it trains (depth 12, splits down to 2 samples):
   in place, through a workspace that outlives the call. *)
let tree_train_fixture () =
  let params = Rkd.Prefetch_rmt.default_params in
  let rng = Kml.Rng.create 11 in
  let history = params.Rkd.Prefetch_rmt.history in
  let nf = history + 3 and n = params.Rkd.Prefetch_rmt.window_capacity in
  let n_classes = 32 in
  let rows = Array.make (n * nf) 0 and labels = Array.make n 0 in
  let delta () =
    if Kml.Rng.int rng 4 = 0 then Kml.Rng.int rng 8193 - 4096 else Kml.Rng.int rng 17 - 8
  in
  for i = 0 to n - 1 do
    let deltas = Array.init history (fun _ -> delta ()) in
    let horizon = 1 + Kml.Rng.int rng 8 in
    let features =
      Array.append deltas [| Kml.Rng.int rng 64; Kml.Rng.int rng 64; horizon |]
    in
    Array.blit features 0 rows (i * nf) nf;
    labels.(i) <-
      (if Kml.Rng.int rng 8 = 0 then Kml.Rng.int rng n_classes
       else (deltas.(0) + (4 * horizon)) land (n_classes - 1))
  done;
  let ws = Kml.Decision_tree.workspace ~n_features:nf ~n_classes ~capacity:n in
  let params = { Kml.Decision_tree.max_depth = 12; min_samples_split = 2 } in
  fun () -> Kml.Decision_tree.train_rows ws ~params ~rows ~labels ~n

(* A Prefetch_rmt trained online on the first 2048 accesses of the seed-42
   video-resize trace, then frozen, and the next 4096 pages of that trace:
   one call of the returned function is one access of infer-prefetch's
   hook (both tables, the VM runs and the tree walks), cycling over the
   slice. *)
let hook_frozen_fixture () =
  let trace = Ksim.Workload_mem.video_resize ~rng:(Kml.Rng.create 42) ~pid:1 () in
  let pages = Array.of_list (List.map (fun a -> a.Ksim.Mem_sim.page) trace) in
  let prefix = 2048 and slice = 4096 in
  let t = Rkd.Prefetch_rmt.create () in
  let on_access = (Rkd.Prefetch_rmt.prefetcher t).Ksim.Prefetcher.on_access in
  for i = 0 to prefix - 1 do
    ignore (on_access ~pid:1 ~page:pages.(i) ~hit:false ~now:(i * 10_000))
  done;
  Rkd.Prefetch_rmt.set_online t false;
  let slice = Array.sub pages prefix slice in
  let k = ref 0 in
  fun () ->
    incr k;
    on_access ~pid:1 ~page:slice.(!k mod Array.length slice) ~hit:false
      ~now:((prefix + !k) * 10_000)

let sched_fixture () =
  (* A trained quantized MLP over the 15 LB features, as in case study 2. *)
  let rng = Kml.Rng.create 3 in
  let ds = Kml.Dataset.create ~n_features:15 ~n_classes:2 in
  for _ = 1 to 1024 do
    let features = Array.init 15 (fun _ -> Kml.Rng.int rng 4096) in
    let label = if features.(4) > 2048 then 1 else 0 in
    Kml.Dataset.add ds { Kml.Dataset.features; label }
  done;
  let mlp = Kml.Mlp.train ~params:{ Kml.Mlp.default_params with epochs = 10 } ~rng ds in
  let q = Kml.Quantize.Qmlp.of_mlp mlp in
  let sched = Rkd.Sched_rmt.create ~model:(Rmt.Model_store.Qmlp q) () in
  (Rkd.Sched_rmt.decider sched, q, mlp)

(* One epoch of a Table 2 mimic training: 15 features, hidden [32; 16],
   2 classes, 512 samples (16 mini-batches). *)
let mlp_train_fixture () =
  let rng = Kml.Rng.create 13 in
  let ds = Kml.Dataset.create ~n_features:15 ~n_classes:2 in
  for _ = 1 to 512 do
    let features = Array.init 15 (fun _ -> Kml.Rng.int rng 4096) in
    let label = if features.(4) > 2048 then 1 else 0 in
    Kml.Dataset.add ds { Kml.Dataset.features; label }
  done;
  ({ Kml.Mlp.hidden = [ 32; 16 ]; epochs = 1; learning_rate = 0.03 }, ds)

(* A context-streaming loop: the absint/analyze row times the verifier's
   abstract interpretation of it, the load-time cost of the analysis. *)
let absint_fixture () =
  let open Rmt.Insn in
  let prog =
    Rmt.Program.make ~name:"ctxt_stream"
      [ Ld_imm (0, 0); Ld_imm (1, 0); Ld_imm (2, 0);
        Rep (64, 5);
        Alu_imm (And, 1, 63); Ld_ctxt (2, 1); Alu (Add, 0, 2); St_ctxt_r (1, 2);
        Alu_imm (Add, 1, 1);
        Exit ]
  in
  (prog, Rmt.Helper.with_defaults ())

(* A one-slot batch over [ctxt]: how a single event enters the datapath. *)
let single ctxt =
  let b = Rmt.Batch.create ~capacity:1 in
  b.Rmt.Batch.ctxts.(0) <- ctxt;
  b

(* Serving-program fixture (DESIGN.md section 14): eight tenants'
   contexts for the prefetch collect program, as one 8-slot batch and
   as eight one-slot batches over the same contexts — one serving round
   dispatched at once or event by event. *)
let serve_collect_fixture () =
  let b8 = Rmt.Batch.create ~capacity:8 in
  Array.iteri
    (fun s c ->
      Rmt.Ctxt.set c Rkd.Hooks.key_page (1234 + (64 * s));
      Rmt.Ctxt.set c Rkd.Hooks.key_last_page (1230 + (64 * s)))
    b8.Rmt.Batch.ctxts;
  (b8, Array.map single b8.Rmt.Batch.ctxts)

(* Batched-invocation fixture (DESIGN.md section 13): a qMLP prefetch
   program — vector-load the feature block, one CALL_ML inference, store
   the predicted class — run either as 64 batches of one or as one
   Vm.invoke_batch at increasing widths.  The program is SoA-eligible, so
   the batch rows exercise the instruction-major kernel with the tiled
   Qmat.mul_vec_batch matmuls. *)
let batch_fixture () =
  let open Rmt in
  let nf = 11 in
  let prog =
    let b = Builder.create ~name:"qmlp_prefetch" ~vmem_size:nf () in
    let (_ : int) = Builder.add_model b ~n_features:nf in
    Builder.emit b (Insn.Vec_ld_ctxt (0, Rkd.Hooks.key_feature_base, nf));
    Builder.emit b (Insn.Call_ml (0, 0, nf));
    Builder.emit b (Insn.St_ctxt (64, 0));
    Builder.emit b Insn.Exit;
    Builder.finish b ()
  in
  let rng = Kml.Rng.create 11 in
  let ds = Kml.Dataset.create ~n_features:nf ~n_classes:8 in
  for _ = 1 to 512 do
    let features = Array.init nf (fun _ -> Kml.Rng.int rng 256) in
    Kml.Dataset.add ds { Kml.Dataset.features; label = features.(0) land 7 }
  done;
  (* Two 64-wide hidden layers: the quantized weights (~42 KB) overflow
     L1, so the per-slot path re-streams them per invocation while
     the SoA kernel touches each row once per batch — the cache-reuse
     half of the batching win, on top of amortized dispatch. *)
  let mlp =
    Kml.Mlp.train
      ~params:{ Kml.Mlp.default_params with hidden = [ 64; 64 ]; epochs = 5 }
      ~rng ds
  in
  let q = Kml.Quantize.Qmlp.of_mlp mlp in
  let control = Control.create () in
  let (_ : Model_store.handle) =
    Control.register_model control ~name:"q" (Model_store.Qmlp q)
  in
  let vm = Result.get_ok (Control.install control ~model_names:[ "q" ] prog) in
  let ctxt = Ctxt.create () in
  for i = 0 to nf - 1 do
    Ctxt.set ctxt (Rkd.Hooks.key_feature_base + i) ((i * 37) land 255)
  done;
  let batch = Batch.create ~capacity:256 in
  for s = 0 to 255 do
    let c = batch.Batch.ctxts.(s) in
    for i = 0 to nf - 1 do
      Ctxt.set c (Rkd.Hooks.key_feature_base + i) (((s + i) * 37) land 255)
    done
  done;
  (vm, single ctxt, batch)

(* Failsafe-layer fixture (DESIGN.md section 12): the same hook wired
   bare and breaker-protected, so the failsafe/* rows quantify what the
   protection costs on a healthy (closed-breaker, no-fault) datapath. *)
let failsafe_fixture () =
  let open Rmt in
  let prog =
    let b = Builder.create ~name:"fs_bench" ~vmem_size:1 () in
    Builder.add_capability b (Program.Guarded { lo = 0; hi = 4095 });
    Builder.emit b (Insn.Ld_ctxt_k (0, 0));
    Builder.emit b (Insn.Alu_imm (Insn.And, 0, 4095));
    Builder.emit b Insn.Exit;
    Builder.finish b ()
  in
  let control = Control.create () in
  let vm = Result.get_ok (Control.install control prog) in
  let bare = Control.create_table control ~name:"fs_bare" ~match_keys:[||] ~default:(Table.Run vm) in
  let guarded =
    Control.create_table control ~name:"fs_guarded" ~match_keys:[||] ~default:(Table.Run vm)
  in
  Control.attach control ~hook:"fs_bare" bare;
  Control.attach control ~hook:"fs_guarded" guarded;
  let breaker =
    Control.protect control ~hook:"fs_guarded" ~programs:[ "fs_bench" ]
      ~fallback:(fun _ -> 0) ()
  in
  (control, breaker, single (Ctxt.of_list [ (0, 1234) ]))

let micro_tests () =
  let fig1_i = Rkd.Experiment.fig1_fixture Rmt.Vm.Interpreted in
  let fig1_j = Rkd.Experiment.fig1_fixture Rmt.Vm.Jit_compiled in
  let decider, qmlp, mlp = sched_fixture () in
  let hook_frozen = hook_frozen_fixture () in
  let ai_prog, ai_helpers = absint_fixture () in
  let now () = 0 in
  let features15 = Array.init 15 (fun i -> i * 17) in
  let tree_features =
    Array.init (Rkd.Prefetch_rmt.default_params.Rkd.Prefetch_rmt.history + 3) (fun i -> i)
  in
  let table =
    let t = Rmt.Table.create ~name:"bench" ~match_keys:[| 0 |] ~default:(Rmt.Table.Const 0) in
    for pid = 0 to 63 do
      ignore (Rmt.Table.insert t ~patterns:[| Rmt.Table.Eq pid |] (Rmt.Table.Const pid))
    done;
    t
  in
  let table_one = single (Rmt.Ctxt.of_list [ (0, 40) ]) in
  let bvm, bone, batch = batch_fixture () in
  let serve_b8, serve_ones = serve_collect_fixture () in
  let fs_control, fs_breaker, fs_one = failsafe_fixture () in
  let obs_counter = Obs.Counter.make "bench.obs.counter" in
  let obs_histo = Obs.Histo.make "bench.obs.histo" in
  [ (* Figure 1 family: the VM itself, interpreted vs JIT.  Collect's
       interp/jit ratio is gated; predict's is not, because its tree walk
       costs the same under both engines. *)
    Test.make ~name:"fig1/collect/interp"
      (Staged.stage (fun () -> Rmt.Vm.invoke_batch fig1_i.collect fig1_i.one ~now));
    Test.make ~name:"fig1/collect/jit"
      (Staged.stage (fun () -> Rmt.Vm.invoke_batch fig1_j.collect fig1_j.one ~now));
    Test.make ~name:"fig1/predict/interp"
      (Staged.stage (fun () -> Rmt.Vm.invoke_batch fig1_i.predict fig1_i.one ~now));
    Test.make ~name:"fig1/predict/jit"
      (Staged.stage (fun () -> Rmt.Vm.invoke_batch fig1_j.predict fig1_j.one ~now));
    (* Table 1 datapath pieces: tree inference and table match. *)
    Test.make ~name:"table1/tree-predict"
      (Staged.stage (fun () -> Kml.Decision_tree.predict fig1_j.tree tree_features));
    Test.make ~name:"table1/table-match"
      (Staged.stage (fun () -> Rmt.Table.lookup_batch table table_one ~now));
    (* One access of a frozen Prefetch_rmt: the hook layer of
       infer-prefetch. *)
    Test.make ~name:"table1/hook-frozen" (Staged.stage hook_frozen);
    (* Table 2 datapath pieces: quantized vs float MLP and the full RMT
       migration decision. *)
    Test.make ~name:"table2/qmlp-predict"
      (Staged.stage (fun () -> Kml.Quantize.Qmlp.predict qmlp features15));
    Test.make ~name:"table2/float-mlp-predict"
      (Staged.stage (fun () -> Kml.Mlp.predict mlp features15));
    Test.make ~name:"table2/migration-decision"
      (Staged.stage (fun () -> decider ~features:features15 ~heuristic:false));
    (* The verifier's abstract interpretation, paid once at load time. *)
    Test.make ~name:"absint/analyze"
      (Staged.stage (fun () -> Rmt.Absint.analyze ~helpers:ai_helpers ai_prog));
    (* Observability rows (DESIGN.md section 11): the telemetry primitives
       themselves, and the instrumented JIT fast path with telemetry
       disabled — quantifying the "reduces to a flag load" claim.  The
       disabled rows bracket the flag with allocate/free so every other
       row still measures with telemetry on (the shipping default). *)
    Test.make ~name:"obs/counter-incr"
      (Staged.stage (fun () -> Obs.Counter.incr obs_counter));
    Test.make ~name:"obs/histo-observe"
      (Staged.stage (fun () -> Obs.Histo.observe obs_histo 777));
    Test.make ~name:"obs/trace-emit"
      (Staged.stage (fun () ->
           Obs.Trace.emit ~hook:0 ~uid:1 ~engine:1 ~steps:12 ~result:1 ~flags:0));
    Test.make_with_resource ~name:"obs/counter-incr-off" Test.uniq
      ~allocate:(fun () -> Obs.set_enabled false)
      ~free:(fun () -> Obs.set_enabled true)
      (Staged.stage (fun () -> Obs.Counter.incr obs_counter));
    Test.make_with_resource ~name:"obs/invoke-jit-off" Test.uniq
      ~allocate:(fun () -> Obs.set_enabled false)
      ~free:(fun () -> Obs.set_enabled true)
      (Staged.stage (fun () -> Rmt.Vm.invoke_batch fig1_j.predict fig1_j.one ~now));
    (* Batched invocation (DESIGN.md section 13): one qMLP inference per
       slot, 64 batches of one vs the SoA kernel at widths 8/64/256.  The
       loop64/b64 ratio is the headline amortization win and is gated
       (see [micro_gates]). *)
    Test.make ~name:"batch/qmlp/loop64"
      (Staged.stage (fun () ->
           for _ = 1 to 64 do
             Rmt.Vm.invoke_batch bvm bone ~now
           done));
    Test.make ~name:"batch/qmlp/b8"
      (Staged.stage (fun () ->
           Rmt.Batch.set_n batch 8;
           Rmt.Vm.invoke_batch bvm batch ~now));
    Test.make ~name:"batch/qmlp/b64"
      (Staged.stage (fun () ->
           Rmt.Batch.set_n batch 64;
           Rmt.Vm.invoke_batch bvm batch ~now));
    Test.make ~name:"batch/qmlp/b256"
      (Staged.stage (fun () ->
           Rmt.Batch.set_n batch 256;
           Rmt.Vm.invoke_batch bvm batch ~now));
    (* The serving program (DESIGN.md section 14): eight one-slot runs
       of pf_collect against one 8-slot run, the VM share of what a
       serving round saves over event-by-event dispatch. *)
    Test.make ~name:"serve/collect/loop8"
      (Staged.stage (fun () ->
           for s = 0 to 7 do
             Rmt.Vm.invoke_batch fig1_j.collect serve_ones.(s) ~now
           done));
    Test.make ~name:"serve/collect/b8"
      (Staged.stage (fun () -> Rmt.Vm.invoke_batch fig1_j.collect serve_b8 ~now));
    (* Failsafe rows (DESIGN.md section 12): hook dispatch bare vs
       breaker-protected on the healthy path (closed breaker, no faults),
       plus the breaker admission check itself. *)
    Test.make ~name:"failsafe/fire-bare"
      (Staged.stage (fun () -> Rmt.Control.fire_batch fs_control ~hook:"fs_bare" fs_one));
    Test.make ~name:"failsafe/fire-protected"
      (Staged.stage (fun () -> Rmt.Control.fire_batch fs_control ~hook:"fs_guarded" fs_one));
    Test.make ~name:"failsafe/breaker-allow"
      (Staged.stage (fun () -> Rmt.Breaker.allow fs_breaker ~now:0)) ]

(* Rows whose call takes milliseconds, too long for a 0.1 s Bechamel
   quota to sample more than a handful of times. *)
let loop_tests () =
  let tree_train = tree_train_fixture () in
  let mlp_params, mlp_ds = mlp_train_fixture () in
  [ (* One Prefetch_rmt retrain: the "train" layer of a Table 1 run. *)
    ("kml/tree-train", fun () -> ignore (Sys.opaque_identity (tree_train ())));
    (* One epoch of float MLP training: the "train" layer of a Table 2
       run, which trains for 80 epochs. *)
    ( "kml/mlp-train",
      fun () ->
        ignore
          (Sys.opaque_identity (Kml.Mlp.train ~params:mlp_params ~rng:(Kml.Rng.create 5) mlp_ds))
    ) ]

(* A loop row's figure for one round: the fastest of [loop_runs] calls
   timed one by one, which leaves out the slow spells of a shared host
   as the fastest segments of perfbench do. *)
let loop_runs = 6

let time_min f =
  let best = ref Int64.max_int in
  for _ = 1 to loop_runs do
    let t0 = clock_ns () in
    f ();
    best := Int64.min !best (Int64.sub (clock_ns ()) t0)
  done;
  Int64.to_float !best

(* The suite runs in [rounds] short rounds rather than one long one: a
   shared host's speed drifts by tens of percent within seconds, and a
   median over rounds spread across the run shrugs off a slow spell that
   one long measurement of a row would absorb whole.  [~stabilize:false]
   skips Bechamel's Gc.compact before every sample, which would spend
   most of a short quota compacting and leave each sample cold. *)
let rounds = 5

(* One round of the suite: [(name, ns_per_run)] in suite order, the
   Bechamel rows and then the loop rows. *)
let measure_round tests loops =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.1) ~stabilize:false () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let estimates = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (name, est) :: acc
          | Some _ | None -> acc)
        estimates [])
    tests
  @ List.map (fun (name, f) -> (name, time_min f)) loops

let median = function
  | [] -> None
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    Some a.(Array.length a / 2)

let write_micro_json path results =
  let oc = open_out path in
  let n = List.length results in
  output_string oc "{\n  \"schema\": \"rkd-bench-micro/1\",\n  \"results\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %.2f }%s\n" name ns
        (if i = n - 1 then "" else ","))
    results;
  output_string oc "  ]\n}\n";
  close_out oc

(* Prints one gate line; true when [ratio] is at or above [floor]. *)
let gate label ratio ~floor =
  let ok = ratio >= floor in
  Format.printf "  %-60s %6.2fx  floor %.2fx  %s@." label ratio floor
    (if ok then "ok" else "FAIL");
  ok

let verdict mode ok =
  if ok then Format.printf "%s: ok@." mode
  else begin
    Format.printf "%s: FAILED@." mode;
    exit 1
  end

(* Within-run ratio gates [(label, slower row, faster row, floor)],
   each the median of its per-round ratios: the two rows of a round are
   measured moments apart, so the host's speed cancels out.  On a shared
   2-vCPU host 21 runs read 1.57-2.14 for loop64/b64 and 1.45-1.86 for
   fig1 collect (DESIGN.md section 8), and 20 runs read 1.20-1.61 for
   serve collect loop8/b8, so a pass needs the win to hold, not the host
   to be fast. *)
let micro_gates =
  [ ("batch amortization", "batch/qmlp/loop64", "batch/qmlp/b64", 1.35);
    ("fig1 jit speedup", "fig1/collect/interp", "fig1/collect/jit", 1.15);
    ("serving batch amortization", "serve/collect/loop8", "serve/collect/b8", 1.05) ]

let run_micro path =
  let tests = micro_tests () and loops = loop_tests () in
  let per_round = List.init rounds (fun _ -> measure_round tests loops) in
  let results =
    List.map
      (fun (name, _) ->
        (name, Option.get (median (List.filter_map (List.assoc_opt name) per_round))))
      (List.hd per_round)
  in
  Format.printf "@.Microbenchmarks (Bechamel, monotonic clock)@.";
  Format.printf "  %-32s %14s@." "benchmark" "ns/run";
  List.iter (fun (name, ns) -> Format.printf "  %-32s %14.1f@." name ns) results;
  write_micro_json path results;
  Format.printf "wrote %d results to %s@.@.within-run gates (median of %d rounds)@."
    (List.length results) path rounds;
  let passed =
    List.map
      (fun (label, num, den, floor) ->
        let label = Printf.sprintf "%s (%s / %s)" label num den in
        let ratio round =
          match (List.assoc_opt num round, List.assoc_opt den round) with
          | Some num_ns, Some den_ns -> Some (num_ns /. den_ns)
          | _ -> None
        in
        match median (List.filter_map ratio per_round) with
        | Some r -> gate label r ~floor
        | None ->
          Format.printf "  %-60s %7s  floor %.2fx  MISSING@." label "-" floor;
          false)
      micro_gates
  in
  verdict "micro" (List.for_all Fun.id passed)

(* ------------------------------------------------------------------ *)
(* Macro benchmark: the experiment layer at domains=1 vs domains=N     *)
(* ------------------------------------------------------------------ *)

(* Timed runs print nothing: the rows are [rkdctl]'s to show. *)
let null_formatter = Format.make_formatter (fun _ _ _ -> ()) ignore

let macro_targets =
  [ ("table1", fun () -> ignore (Rkd.Experiment.table1 ()));
    ("table2", fun () -> ignore (Rkd.Experiment.table2 ()));
    ("ablations", fun () -> Rkd.Report.ablations null_formatter);
    ("net", fun () -> ignore (Rkd.Experiment.table3 ~faults:[] ()));
    ("fleet", fun () -> ignore (Rkd.Experiment.fleet_soak ~faults:[] ())) ]

(* Timed into the macro artifact but exempt from the speedup gate: the
   fleet control loop's parallel property is width {e invariance} (same
   digest at any pool width), not speedup — its sequential control step
   and per-tick barrier dominate at the default 12x4 scale. *)
let macro_report_only = [ "fleet" ]

type macro_row = { m_name : string; wall_ms : float; wall_ms_seq : float; speedup : float }

(* Wall-clock, not [Sys.time]: CPU time sums across domains, so the
   parallel harness would look no faster even when it is. *)
let wall_ms f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e3

let measure_macro ~domains =
  List.map
    (fun (m_name, f) ->
      Par.set_global_domains 1;
      let wall_ms_seq = wall_ms f in
      Par.set_global_domains domains;
      let wall_ms = wall_ms f in
      Format.printf "  %-12s %10.0f ms seq %10.0f ms par (domains=%d)  %.2fx@." m_name
        wall_ms_seq wall_ms domains (wall_ms_seq /. wall_ms);
      { m_name; wall_ms; wall_ms_seq; speedup = wall_ms_seq /. wall_ms })
    macro_targets

let write_macro_json path ~domains rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"rkd-bench-macro/1\",\n  \"domains\": %d,\n  \"results\": [\n"
    domains;
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"name\": %S, \"wall_ms\": %.1f, \"wall_ms_seq\": %.1f, \"speedup\": %.2f }%s\n"
        r.m_name r.wall_ms r.wall_ms_seq r.speedup
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

(* The gate asks only that the pool never loses to the sequential
   harness.  Parallelism must pay for itself when it genuinely fans out
   (domains > 1, each with a core to run on); a lone domain or an
   oversubscribed pool (domains > cores, e.g. RKD_DOMAINS=4 forced on a
   small runner) only has to stay clear of a pathological slowdown. *)
let run_macro path =
  let domains = Par.default_domains () in
  let cores = Domain.recommended_domain_count () in
  Format.printf "macro benchmark: experiment harness at domains=1 vs domains=%d@." domains;
  let rows = measure_macro ~domains in
  write_macro_json path ~domains rows;
  let floor = if domains > 1 && domains <= cores then 1.0 else 0.70 in
  Format.printf "wrote %d results to %s@.@.speedup gates (domains=%d on %d hardware thread%s)@."
    (List.length rows) path domains cores
    (if cores = 1 then "" else "s");
  let passed =
    List.map
      (fun r ->
        if List.mem r.m_name macro_report_only then begin
          Format.printf "  %-60s %6.2fx  report-only@." r.m_name r.speedup;
          true
        end
        else gate r.m_name r.speedup ~floor)
      rows
  in
  verdict "macro" (List.for_all Fun.id passed)

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  match arg 1 "micro" with
  | "micro" -> run_micro (arg 2 "BENCH_micro.json")
  | "macro" -> run_macro (arg 2 "BENCH_macro.json")
  | other ->
    Format.eprintf "unknown mode %s (expected micro|macro)@." other;
    exit 1
