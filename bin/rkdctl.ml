(* rkdctl — control-plane CLI for the reconfigurable-kernel-datapaths
   reproduction.  `rkdctl --help` lists the subcommands. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let program_arg =
  let doc = "RMT assembly file (see lib/rmt/asm.mli for the syntax)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let ctxt_arg =
  let doc = "Initial execution-context binding KEY=VALUE (repeatable)." in
  Arg.(value & opt_all (pair ~sep:'=' int int) [] & info [ "c"; "ctxt" ] ~docv:"K=V" ~doc)

(* A count of at least 1: anything else is a usage error (exit 124). *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let engine_conv = Arg.enum [ ("interp", Rmt.Vm.Interpreted); ("jit", Rmt.Vm.Jit_compiled) ]

let engine_arg =
  let doc = "Execution engine: 'interp' or 'jit'." in
  Arg.(value & opt engine_conv Rmt.Vm.Jit_compiled & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let parse_program path =
  (* Accept both the assembly text format and the RMTB wire format. *)
  let contents = read_file path in
  if String.length contents >= 4 && String.sub contents 0 4 = Rmt.Encoding.magic then
    match Rmt.Encoding.decode (Bytes.of_string contents) with
    | Ok program -> Ok program
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
  else begin
    match Rmt.Asm.parse contents with
    | Ok program -> Ok program
    | Error e -> Error (Format.asprintf "%s: %a" path Rmt.Asm.pp_error e)
  end

let strict_arg =
  let doc =
    "Strict mode: also reject dynamic context keys and vector map windows the abstract \
     interpreter cannot prove in bounds (privacy-flow violations are enforced either way)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

(* Declared resource budget (Homunculus-style admission): any axis left
   unset inherits Resource.default_budget. *)
let max_steps_arg =
  Arg.(value & opt (some int) None
       & info [ "max-steps" ] ~docv:"N" ~doc:"Budget: worst-case dynamic instructions.")

let max_scratch_arg =
  Arg.(value & opt (some int) None
       & info [ "max-scratch" ] ~docv:"N" ~doc:"Budget: vector scratchpad words.")

let max_slots_arg =
  Arg.(value & opt (some int) None
       & info [ "max-slots" ] ~docv:"N"
           ~doc:"Budget: kernel-object table slots (maps + models + tail calls).")

let budget_of_flags max_steps max_scratch max_slots =
  let d = Rmt.Resource.default_budget in
  { Rmt.Resource.max_steps = Option.value max_steps ~default:d.Rmt.Resource.max_steps;
    max_scratch_words = Option.value max_scratch ~default:d.Rmt.Resource.max_scratch_words;
    max_table_slots = Option.value max_slots ~default:d.Rmt.Resource.max_table_slots }

let verify_cmd =
  let run path strict max_steps max_scratch max_slots =
    match parse_program path with
    | Error e ->
      prerr_endline e;
      1
    | Ok program ->
      let helpers = Rmt.Helper.with_defaults () in
      (match Rmt.Verifier.check_structure_only ~strict ~helpers program with
       | Ok report ->
         Format.printf "%s: OK@." program.Rmt.Program.name;
         Format.printf "  worst-case dynamic instructions: %d@."
           report.Rmt.Verifier.worst_case_steps;
         Format.printf "  uses privacy-charged helpers: %b@." report.Rmt.Verifier.uses_privacy;
         Format.printf "  helpers used: [%s]@."
           (String.concat "; " (List.map string_of_int report.Rmt.Verifier.helper_ids_used));
         let resource = Rmt.Resource.of_report report program in
         Format.printf "  %a@." Rmt.Resource.pp resource;
         let ai = Rmt.Absint.analyze ~helpers program in
         Format.printf "  abstract interpretation:@.";
         Rmt.Absint.pp Format.std_formatter ai program;
         let budget = budget_of_flags max_steps max_scratch max_slots in
         (match Rmt.Resource.violations resource budget with
          | [] -> 0
          | vs ->
            List.iter (fun v -> Format.printf "  BUDGET EXCEEDED: %s@." v) vs;
            1)
       | Error v ->
         Format.printf "%s: REJECTED: %a@." program.Rmt.Program.name Rmt.Verifier.pp_violation
           v;
         1)
  in
  let doc =
    "verify an RMT assembly program, print the resource and abstract-interpretation \
     reports, and fail if a declared budget is exceeded"
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run $ program_arg $ strict_arg $ max_steps_arg $ max_scratch_arg
          $ max_slots_arg)

let resources_cmd =
  let run json_path =
    let helpers = Rmt.Helper.with_defaults () in
    let params = Rkd.Prefetch_rmt.default_params in
    let progs =
      [ Rkd.Prefetch_rmt.build_collect_program params;
        Rkd.Prefetch_rmt.build_predict_program params ]
    in
    let reports =
      List.filter_map
        (fun (prog : Rmt.Program.t) ->
          match Rmt.Verifier.check_structure_only ~helpers prog with
          | Ok report -> Some (Rmt.Resource.of_report report prog)
          | Error v ->
            Format.printf "%s: REJECTED: %a@." prog.Rmt.Program.name Rmt.Verifier.pp_violation
              v;
            None)
        progs
    in
    List.iter (fun r -> Format.printf "%a@." Rmt.Resource.pp r) reports;
    (match json_path with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           List.iter (fun r -> output_string oc (Rmt.Resource.to_json r ^ "\n")) reports);
       Format.printf "wrote %d resource reports to %s@." (List.length reports) path);
    if List.length reports = List.length progs then 0 else 1
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the reports as JSON lines to FILE (CI artifact).")
  in
  let doc =
    "print compile-time resource reports (steps, scratch, constants, table slots) for the \
     example prefetch programs"
  in
  Cmd.v (Cmd.info "resources" ~doc) Term.(const run $ json_arg)

(* Lint a list of (name, program) pairs, printing findings and the
   resource-use summary; returns the total finding count and the JSON
   lines for --json. *)
let lint_programs ~helpers progs =
  let budget = Rmt.Resource.default_budget in
  let total = ref 0 in
  let json = ref [] in
  let failed = ref false in
  List.iter
    (fun (name, prog) ->
      match Analysis.Lint.analyze ~helpers prog with
      | Error e ->
        Format.printf "%s: NOT VERIFIABLE: %s@." name e;
        failed := true
      | Ok findings ->
        Format.printf "%s: %d finding%s@." name (List.length findings)
          (if List.length findings = 1 then "" else "s");
        List.iter (fun f -> Format.printf "  %a@." Analysis.Lint.pp_finding f) findings;
        (match Rmt.Verifier.check_structure_only ~helpers prog with
         | Ok report ->
           List.iter
             (fun (axis, used, allowed) ->
               Format.printf "  resource %s: %d / %d@." axis used allowed)
             (Analysis.Lint.resource_waste report prog ~budget)
         | Error _ -> ());
        total := !total + List.length findings;
        json := Analysis.Lint.findings_to_json ~program:name findings :: !json)
    progs;
  (!total, List.rev !json, !failed)

let write_json_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let analyze_cmd =
  let run files json_path strict mutations =
    let helpers = Rmt.Helper.with_defaults () in
    if mutations then begin
      (* Validate the lint itself: every seeded-defect mutant must be
         caught by its expected rule. *)
      let missed = ref 0 in
      let json = ref [] in
      List.iter
        (fun (name, expected, prog) ->
          match Analysis.Lint.analyze ~helpers prog with
          | Error e ->
            Format.printf "[MISS] %s: did not verify: %s@." name e;
            incr missed
          | Ok findings ->
            let caught =
              List.exists (fun f -> f.Analysis.Lint.rule = expected) findings
            in
            Format.printf "[%s] %s: expected %s, got %d finding%s@."
              (if caught then "CAUGHT" else "MISS")
              name expected (List.length findings)
              (if List.length findings = 1 then "" else "s");
            if not caught then begin
              List.iter (fun f -> Format.printf "  %a@." Analysis.Lint.pp_finding f) findings;
              incr missed
            end;
            json := Analysis.Lint.findings_to_json ~program:name findings :: !json)
        (Analysis.Corpus.mutants ());
      Option.iter (fun p -> write_json_lines p (List.rev !json)) json_path;
      Format.printf "mutation corpus: %d/%d caught@."
        (List.length (Analysis.Corpus.mutants ()) - !missed)
        (List.length (Analysis.Corpus.mutants ()));
      if !missed = 0 then 0 else 1
    end
    else begin
      let progs =
        match files with
        | [] ->
          (* No files: lint every real program the repo ships. *)
          Analysis.Corpus.clean ()
        | files ->
          List.filter_map
            (fun path ->
              match parse_program path with
              | Ok prog -> Some (prog.Rmt.Program.name, prog)
              | Error e ->
                prerr_endline e;
                None)
            files
      in
      let total, json, failed = lint_programs ~helpers progs in
      Option.iter (fun p -> write_json_lines p json) json_path;
      Format.printf "%d program%s, %d finding%s@." (List.length progs)
        (if List.length progs = 1 then "" else "s")
        total
        (if total = 1 then "" else "s");
      if failed || List.length progs < List.length files then 1
      else if strict && total > 0 then 1
      else 0
    end
  in
  let files_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE"
             ~doc:"RMT assembly or encoded programs to lint; with no FILE, lint every \
                   program the repo ships (the clean corpus).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write per-program findings as JSON lines to FILE (CI artifact).")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit nonzero when any finding is reported.")
  in
  let mutations_arg =
    Arg.(value & flag
         & info [ "mutations" ]
             ~doc:"Run the seeded-defect mutation corpus instead: exit nonzero unless \
                   every mutant is caught by its expected rule.")
  in
  let doc =
    "lint datapath programs against the verifier's abstract-interpretation facts: dead \
     stores, unreachable code, statically dead branch arms, redundant guards, \
     taint-laundering map reads, unused declarations, oversized scratchpads"
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ files_arg $ json_arg $ strict_arg $ mutations_arg)

let mc_cmd =
  let run json_path self_test max_states =
    let json = ref [] in
    let check expect_fail model =
      let module M = (val model : Analysis.Mc.MODEL) in
      let t0 = Unix.gettimeofday () in
      let outcome = Analysis.Mc.run ?max_states model in
      let dt = Unix.gettimeofday () -. t0 in
      let stats = Analysis.Mc.stats_of outcome in
      let ok =
        match (outcome, expect_fail) with
        | Analysis.Mc.Pass _, false | Analysis.Mc.Fail _, true -> true
        | _ -> false
      in
      Format.printf "[%s] %s: %a (%.2fs)@."
        (if ok then "PASS" else "FAIL")
        M.name Analysis.Mc.pp_outcome outcome dt;
      (match (outcome, expect_fail) with
       | Analysis.Mc.Pass _, true ->
         Format.printf "  expected a counterexample from this broken variant@."
       | Analysis.Mc.Fail _, false -> ()
       | _ -> ());
      json :=
        Printf.sprintf
          "{\"model\":\"%s\",\"verdict\":\"%s\",\"expected\":\"%s\",\"states\":%d,\
           \"transitions\":%d,\"sleep_skips\":%d,\"max_depth\":%d,\"seconds\":%.3f}"
          M.name
          (Analysis.Mc.verdict_name outcome)
          (if expect_fail then "fail" else "pass")
          stats.Analysis.Mc.states stats.Analysis.Mc.transitions
          stats.Analysis.Mc.sleep_skips stats.Analysis.Mc.max_depth dt
        :: !json;
      ok
    in
    let results =
      if self_test then
        (* Broken protocol variants: each must yield a counterexample
           trace — the models (and properties) can detect the bugs they
           were built to catch. *)
        [ check true
            (Analysis.Mc_models.ring ~bug:Analysis.Mc_models.Stale_cached_head ~capacity:2
               ~pushes:3 ~max_batch:2 ());
          check true
            (Analysis.Mc_models.ring ~bug:Analysis.Mc_models.No_drain_refresh ~capacity:2
               ~pushes:3 ~max_batch:2 ());
          check true
            (Analysis.Mc_models.shard ~bug:Analysis.Mc_models.Dropped_wake ~pushes:2 ()) ]
      else
        [ check false (Analysis.Mc_models.ring ~capacity:2 ~pushes:4 ~max_batch:2 ());
          check false (Analysis.Mc_models.ring ~capacity:4 ~pushes:6 ~max_batch:2 ());
          check false (Analysis.Mc_models.shard ~pushes:3 ()) ]
    in
    Option.iter (fun p -> write_json_lines p (List.rev !json)) json_path;
    if List.for_all Fun.id results then 0 else 1
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write per-model verdicts and state counts as JSON lines to FILE (CI \
                   artifact).")
  in
  let self_test_arg =
    Arg.(value & flag
         & info [ "self-test" ]
             ~doc:"Check the deliberately broken protocol variants instead: each must \
                   produce a counterexample trace.")
  in
  let max_states_arg =
    Arg.(value & opt (some int) None
         & info [ "max-states" ] ~docv:"N" ~doc:"Abort after exploring N states.")
  in
  let doc =
    "exhaustively model-check the serving-plane protocols (SPSC ring push/drain, shard \
     park/wake) at small scope: FIFO order, no lost push, no lost wake, \
     cursor monotonicity, quiescent-drain completeness"
  in
  Cmd.v (Cmd.info "mc" ~doc)
    Term.(const run $ json_arg $ self_test_arg $ max_states_arg)

let absint_fuzz_cmd =
  let run trials seed =
    match Rmt.Fuzz.run ~seed ~trials () with
    | stats ->
      Format.printf "absint-fuzz: %a@." Rmt.Fuzz.pp_stats stats;
      0
    | exception Rmt.Fuzz.Unsound msg ->
      Format.printf "absint-fuzz: SOUNDNESS VIOLATION@.%s@." msg;
      1
  in
  let trials_arg =
    Arg.(value & opt int 300 & info [ "t"; "trials" ] ~docv:"N" ~doc:"Random programs to try.")
  in
  let seed_arg =
    Arg.(value & opt int 0x50FA & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
  in
  let doc =
    "differentially fuzz the abstract interpreter and the engines (interp, JIT and batch \
     lanes vs an independent reference)"
  in
  Cmd.v (Cmd.info "absint-fuzz" ~doc) Term.(const run $ trials_arg $ seed_arg)

let decode_fuzz_cmd =
  let run trials seed =
    match Rmt.Fuzz.decode_fuzz ~seed ~trials () with
    | stats ->
      Format.printf "decode-fuzz: %a@." Rmt.Fuzz.pp_decode_stats stats;
      0
    | exception Rmt.Fuzz.Unsound msg ->
      Format.printf "decode-fuzz: DECODER ESCAPE@.%s@." msg;
      1
  in
  let trials_arg =
    Arg.(value & opt int 300 & info [ "t"; "trials" ] ~docv:"N" ~doc:"Random programs to try.")
  in
  let seed_arg =
    Arg.(value & opt int 0xdec0de & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
  in
  let doc =
    "fuzz the wire-format decoder with seeded bit flips, truncations and appends (a decode \
     must return Ok or Error, never raise)"
  in
  Cmd.v (Cmd.info "decode-fuzz" ~doc) Term.(const run $ trials_arg $ seed_arg)

(* --------------------------------------------------------------------- *)
(* Pool width and the determinism harness                                 *)
(* --------------------------------------------------------------------- *)

let domains_arg =
  let doc =
    "Experiment-engine parallelism: number of domains in the shared pool (1 = sequential). \
     Defaults to $(b,RKD_DOMAINS) or the machine's core count."
  in
  Arg.(value & opt (some int) None & info [ "d"; "domains" ] ~docv:"N" ~doc)

(* A subcommand that runs on the domain pool: --domains sets the global
   width, then [term]'s thunk runs and returns the exit code. *)
let pooled name doc term =
  let run domains f =
    Option.iter Par.set_global_domains domains;
    f ()
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ domains_arg $ term)

(* One pass of [f] at the current pool width.  Every "[name] elapsed"
   line means the same thing: the wall time of one pass at domains=N. *)
let timed_pass name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Format.printf "[%s] elapsed %.2f s (domains=%d)@." name
    (Unix.gettimeofday () -. t0)
    (Par.global_domains ());
  r

(* Timed passes of [f] at the current width first, then at one other. *)
let replay name f =
  let w = Par.global_domains () in
  Par.replay ~widths:[ w; (if w = 1 then 4 else 1) ] (fun () -> timed_pass name f)

(* The replay gate: a line per run, then the verdict.  True when every
   digest equals the first run's. *)
let same_digests ?(label = "domains") name runs =
  List.iter (fun (k, d) -> Format.printf "%s digest %016x (%s=%d)@." name d label k) runs;
  let same = List.for_all (fun (_, d) -> d = snd (List.hd runs)) runs in
  Format.printf "%s digests %s@." name (if same then "identical" else "DIVERGED");
  same

let digests_json ?(label = "domains") runs =
  String.concat ","
    (List.map (fun (k, d) -> Printf.sprintf "{\"%s\":%d,\"digest\":\"%016x\"}" label k d) runs)

let chaos_cmd =
  let run scenarios events seed snapshot () =
    (* Each pass keeps its own telemetry delta and only the first is
       written: above width 1 the per-hook breaker views read whichever
       scenario registered its pipeline last. *)
    let runs =
      replay "chaos" (fun () ->
          let before = Obs.Registry.snapshot () in
          let summary = fst (Rkd.Chaos.run ~seed ~events ~scenarios ()) in
          (summary, Obs.Snapshot.diff ~before ~after:(Obs.Registry.snapshot ())))
    in
    let summary, delta = snd (List.hd runs) in
    Format.printf "%a@." Rkd.Chaos.pp_summary summary;
    (match snapshot with
     | None -> ()
     | Some path ->
       let snap =
         Obs.Snapshot.filter delta
           ~prefixes:
             [ "rmt.breaker"; "rmt.fault"; "rmt.canary"; "rmt.vm"; "rmt.pipeline";
               "rmt.control" ]
       in
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc (Obs.Snapshot.to_json snap));
       Format.printf "wrote breaker/fault snapshot to %s@." path);
    let deterministic =
      same_digests "chaos" (List.map (fun (w, (s, _)) -> (w, s.Rkd.Chaos.digest)) runs)
    in
    let contained (_, ((s : Rkd.Chaos.summary), _)) = s.total_uncaught = 0 && s.not_reclosed = 0 in
    if deterministic && List.for_all contained runs then 0 else 1
  in
  let scenarios_arg =
    Arg.(value & opt int 200 & info [ "n"; "scenarios" ] ~docv:"N" ~doc:"Fault scenarios to run.")
  in
  let events_arg =
    Arg.(value & opt int 200 & info [ "events" ] ~docv:"N" ~doc:"Faulted events per scenario.")
  in
  let seed_arg =
    Arg.(value & opt int 0xc4a05 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Master seed.")
  in
  let snapshot_arg =
    Arg.(value & opt (some string) None
         & info [ "snapshot" ] ~docv:"FILE"
             ~doc:"Write the breaker/fault/canary telemetry delta as JSON to FILE.")
  in
  let doc =
    "chaos soak: seeded fault-injection scenarios over the failsafe datapath, replayed at a \
     second pool width; fails unless every scenario contains its faults, every breaker \
     re-closes and the two digests are bit-identical"
  in
  pooled "chaos" doc Term.(const run $ scenarios_arg $ events_arg $ seed_arg $ snapshot_arg)

let net_cmd =
  let run json_path seed learned baseline () =
    let systems =
      match (learned, baseline) with
      | true, false -> [ "rmt-ml" ]
      | false, true -> [ "cubic"; "bbr" ]
      | _ -> Rkd.Experiment.net_systems
    in
    (* The replay includes any RKD_FAULTS plan, which table3 re-arms per
       task. *)
    let runs = replay "net" (fun () -> Rkd.Experiment.table3 ~seed ~systems ()) in
    let rows = snd (List.hd runs) in
    Rkd.Report.print_table3 Format.std_formatter rows;
    let checks = Rkd.Report.net_checks rows in
    List.iter
      (fun (name, ok) -> Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") name)
      checks;
    let digests = List.map (fun (w, rows) -> (w, Rkd.Experiment.table3_digest rows)) runs in
    let deterministic = same_digests "net" digests in
    (match json_path with
     | None -> ()
     | Some path ->
       let row_lines =
         List.map
           (fun (r : Rkd.Experiment.table3_row) ->
             Printf.sprintf
               "{\"schema\":\"rkd-net/1\",\"seed\":%d,\"mix\":\"%s\",\"system\":\"%s\",\
                \"goodput_mbps\":%.3f,\"mean_fct_ms\":%.3f,\"p99_fct_ms\":%.3f,\
                \"fairness\":%.4f,\"retransmits\":%d,\"incomplete\":%d,\"fallbacks\":%d,\
                \"digest\":\"%016x\"}"
               seed r.Rkd.Experiment.net_mix r.Rkd.Experiment.cc_system
               r.Rkd.Experiment.goodput_mbps r.Rkd.Experiment.net_mean_fct_ms
               r.Rkd.Experiment.net_p99_fct_ms r.Rkd.Experiment.net_fairness
               r.Rkd.Experiment.net_retransmits r.Rkd.Experiment.net_incomplete
               r.Rkd.Experiment.net_fallbacks r.Rkd.Experiment.net_digest)
           rows
       in
       let summary =
         Printf.sprintf
           "{\"schema\":\"rkd-net-summary/2\",\"seed\":%d,\"rows\":%d,\"digests\":[%s],\
            \"deterministic\":%b,\"checks_failed\":%d}"
           seed (List.length rows) (digests_json digests) deterministic
           (List.length (List.filter (fun (_, ok) -> not ok) checks))
       in
       write_json_lines path (row_lines @ [ summary ]);
       Format.printf "wrote net experiment rows to %s@." path);
    let checks_ok = List.for_all snd checks in
    (* Under an RKD_FAULTS chaos plan the learned path degrades to the
       stock fallback by design, so only determinism gates the exit. *)
    let faulted = Rmt.Fault.env_plan <> [] in
    if deterministic && (checks_ok || faulted) then 0 else 1
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write rkd-net/1 JSON rows to FILE.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Master seed.")
  in
  let learned_arg =
    Arg.(value & flag & info [ "learned" ] ~doc:"Run only the learned (rmt-ml) controller.")
  in
  let baseline_arg =
    Arg.(value & flag & info [ "baseline" ] ~doc:"Run only the stock Cubic/BBR baselines.")
  in
  let doc =
    "Table 3: learned congestion control on the net.cc decision point; replays the \
     experiment at a second pool width and fails on digest divergence"
  in
  pooled "net" doc Term.(const run $ json_arg $ seed_arg $ learned_arg $ baseline_arg)

let serve_cmd =
  let run tenants events shards producers pinned soak seed =
    let config =
      { Serve.Serving.default_config with
        Serve.Serving.shards;
        producers;
        ring_capacity = 1024;
        max_batch = 64 }
    in
    (* One full pass of the multi-tenant trace through a fresh fleet;
       inline (single-consumer) mode is fully deterministic — batch
       boundaries, fault draws and clock reads replay exactly — so the
       soak runs it twice and compares decision digests.  The clock is a
       synthetic nanosecond tick per submitted event. *)
    (* The module-init RKD_FAULTS plan owns one process-wide rng, so a
       second run would continue the first run's draw stream.  Re-arm a
       fresh plan with a run-independent seed before each pass: the soak
       replay then sees the exact same fault schedule. *)
    let run_once ~pinned =
      (match Rmt.Fault.env_plan with
       | [] -> ()
       | specs -> Rmt.Fault.set_global ~seed:(seed lxor 0xfa17) specs);
      let trace =
        Ksim.Workload_mem.multi_tenant ~rng:(Kml.Rng.create seed) ~tenants
          ~events_per_tenant:events ()
      in
      let fleet, dps = Serve.Serving.create_datapath ~config () in
      (* Dispatches and slots over every shard's [batch_slots]; the
         histograms are process-wide, so a pass reads its own delta. *)
      let slots () =
        Array.fold_left
          (fun (count, sum) dp ->
            let h = Serve.Shard.Datapath.batch_slots dp in
            (count + Obs.Histo.count h, sum + Obs.Histo.sum h))
          (0, 0) dps
      in
      let dispatches0, slots0 = slots () in
      if pinned then Serve.Serving.start fleet;
      let tick = ref 0 in
      List.iter
        (fun a ->
          incr tick;
          Serve.Serving.set_now fleet (!tick * 1000);
          let rec push () =
            match
              Serve.Serving.submit fleet ~producer:0 ~tenant:a.Ksim.Mem_sim.pid
                ~page:a.Ksim.Mem_sim.page
            with
            | `Admitted -> ()
            | `Throttled -> assert false
            | `Backpressure ->
              if pinned then Domain.cpu_relax ()
              else ignore (Serve.Serving.drain fleet : int);
              push ()
          in
          push ())
        trace;
      if pinned then Serve.Serving.stop fleet else Serve.Serving.drain_until_idle fleet;
      (* Measure before the re-close probes below: their synthetic events
         are served too and must not fold into the replayed digest. *)
      let served = Serve.Serving.served fleet in
      let digest = Serve.Serving.digest fleet in
      let dispatches, slots =
        let count, sum = slots () in
        (count - dispatches0, sum - slots0)
      in
      (* Faults (e.g. RKD_FAULTS=all:...) may leave shard breakers open
         at stream end; every one must re-close under fault-free probe
         traffic within its backoff — the chaos invariant. *)
      let reclosed =
        Rmt.Fault.without (fun () ->
            Array.for_all
              (fun dp ->
                let breaker = Serve.Shard.Datapath.breaker dp in
                let rec probe k =
                  Rmt.Breaker.state breaker = Rmt.Breaker.Closed
                  ||
                  if k = 0 then false
                  else begin
                    tick := !tick + 2_000_000;
                    Serve.Serving.set_now fleet (!tick * 1000);
                    for t = 0 to tenants - 1 do
                      (match Serve.Serving.submit fleet ~producer:0 ~tenant:t ~page:t with
                       | `Admitted | `Throttled | `Backpressure -> ());
                      Serve.Serving.drain_until_idle fleet
                    done;
                    probe (k - 1)
                  end
                in
                probe 64)
              dps)
      in
      ( served,
        digest,
        reclosed,
        Array.map Serve.Shard.Datapath.tenant_count dps,
        (dispatches, slots) )
    in
    let expected = tenants * events in
    let served, digest, reclosed, per_shard, (dispatches, slots) =
      run_once ~pinned:(pinned && not soak)
    in
    Format.printf "serve: %d events, %d tenants over %d shard%s (%s)@." served tenants shards
      (if shards = 1 then "" else "s")
      (if pinned && not soak then "pinned workers" else "inline");
    Array.iteri (fun i n -> Format.printf "  shard %d: %d tenants@." i n) per_shard;
    Format.printf "  digest %016x  breakers %s@." digest
      (if reclosed then "re-closed" else "STUCK OPEN");
    if dispatches > 0 then
      Format.printf "  batch_slots: %d dispatches, %.2f slots per dispatch@." dispatches
        (float_of_int slots /. float_of_int dispatches);
    (* The pool width never reaches inline serving, so the soak's two
       passes are labelled by pass number. *)
    let replayed =
      (not soak)
      ||
      let served2, digest2, reclosed2, _, _ = run_once ~pinned:false in
      same_digests ~label:"pass" "serve" [ (1, digest); (2, digest2) ]
      && served2 = served && reclosed2
    in
    if served >= expected && reclosed && replayed then 0 else 1
  in
  let tenants_arg =
    Arg.(value & opt positive_int 32 & info [ "tenants" ] ~docv:"N" ~doc:"Distinct tenants.")
  in
  let events_arg =
    Arg.(value & opt positive_int 200 & info [ "events" ] ~docv:"N" ~doc:"Events per tenant.")
  in
  let shards_arg =
    Arg.(value & opt positive_int 4 & info [ "shards" ] ~docv:"N" ~doc:"Serving shards.")
  in
  let producers_arg =
    Arg.(value & opt positive_int 1
         & info [ "producers" ] ~docv:"N" ~doc:"Producer rings per shard.")
  in
  let pinned_arg =
    Arg.(value & flag
         & info [ "pinned" ]
             ~doc:"Drain with one pinned worker domain per shard instead of inline.")
  in
  let soak_arg =
    Arg.(value & flag
         & info [ "soak" ]
             ~doc:"Deterministic soak: run the trace twice inline (single-consumer mode \
                   replays batch boundaries and fault draws exactly) and fail unless the \
                   decision digests are bit-identical and every shard breaker re-closes. \
                   Combine with \\$(b,RKD_FAULTS) for a chaos soak.")
  in
  let seed_arg =
    Arg.(value & opt int 0x5e4e & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Trace seed.")
  in
  let doc =
    "drive the sharded multi-tenant serving layer over a generated trace; fails unless \
     every admitted event is served, digests replay bit-identically (--soak) and every \
     per-shard breaker re-closes"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ tenants_arg $ events_arg $ shards_arg $ producers_arg $ pinned_arg
      $ soak_arg $ seed_arg)

let fleet_cmd =
  let run json_path seed ticks storm () =
    let faulted = Rmt.Fault.env_plan <> [] in
    (* [Fleet.tick] drives its shards in order and reaches no pool, so
       the replay runs twice at the current width, labelled by pass as
       [serve --soak] is.  Both passes include any RKD_FAULTS plan, which
       the fleet re-arms per shard. *)
    let pass () = timed_pass "fleet" (fun () -> Rkd.Experiment.fleet_soak ~seed ~storm ~ticks ()) in
    let r = pass () in
    let runs = [ (1, r); (2, pass ()) ] in
    Rkd.Report.print_fleet Format.std_formatter r;
    let checks = Rkd.Report.fleet_checks ~faulted r in
    List.iter
      (fun (name, ok) -> Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") name)
      checks;
    let digests = List.map (fun (w, r) -> (w, r.Rkd.Fleet.digest)) runs in
    let deterministic = same_digests ~label:"pass" "fleet" digests in
    let checks_failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
    (match json_path with
     | None -> ()
     | Some path ->
       let summary =
         Printf.sprintf
           "{\"schema\":\"rkd-fleet-summary/3\",\"seed\":%d,\"storm\":%b,\"faulted\":%b,\
            \"digests\":[%s],\"deterministic\":%b,\"checks_failed\":%d}"
           seed storm faulted (digests_json ~label:"pass" digests) deterministic checks_failed
       in
       write_json_lines path [ Rkd.Fleet.report_json r; summary ];
       Format.printf "wrote fleet report to %s@." path);
    if deterministic && checks_failed = 0 then 0 else 1
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the rkd-fleet/1 report JSON to FILE.")
  in
  let seed_arg =
    Arg.(value & opt int 0xf1ee7 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Master seed.")
  in
  let ticks_arg =
    Arg.(value & opt int 160 & info [ "ticks" ] ~docv:"N" ~doc:"Control-loop iterations.")
  in
  let storm_arg =
    Arg.(value & flag
         & info [ "storm" ]
             ~doc:"Drift storm: every tenant's concept changes at the same tick.")
  in
  let doc =
    "drift-aware fleet control plane: per-tenant drift detection, retrain/distill candidate \
     search and staged canary rollout, run twice; fails on digest divergence between the \
     two passes, a breaker left open, or install thrash.  Combine with $(b,RKD_FAULTS) for \
     a chaos soak."
  in
  pooled "fleet" doc Term.(const run $ json_arg $ seed_arg $ ticks_arg $ storm_arg)

let disasm_cmd =
  let run path =
    match parse_program path with
    | Error e ->
      prerr_endline e;
      1
    | Ok program ->
      print_string (Rmt.Asm.print program);
      0
  in
  let doc = "parse and pretty-print an RMT assembly program" in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ program_arg)

let run_cmd =
  let run path bindings engine =
    match parse_program path with
    | Error e ->
      prerr_endline e;
      1
    | Ok program ->
      let control = Rmt.Control.create ~engine () in
      (match Rmt.Control.install control program with
       | Error e ->
         prerr_endline e;
         1
       | Ok vm ->
         let b = Rmt.Batch.create ~capacity:1 in
         let ctxt = Rmt.Ctxt.of_list bindings in
         b.Rmt.Batch.ctxts.(0) <- ctxt;
         Rmt.Vm.invoke_batch vm b ~now:(fun () -> 0);
         (match b.Rmt.Batch.traps.(0) with
          | None ->
            Format.printf "result = %d (steps = %d, privacy denials = %d)@."
              b.Rmt.Batch.results.(0) b.Rmt.Batch.steps.(0) b.Rmt.Batch.denied.(0);
            Format.printf "context after run: %a@." Rmt.Ctxt.pp ctxt;
            0
          | Some trap ->
            Format.printf "trap: %s@." (Rmt.Interp.trap_message trap);
            1))
  in
  let doc = "verify, install and run a program once" in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ program_arg $ ctxt_arg $ engine_arg)

let assemble_cmd =
  let run path out =
    match parse_program path with
    | Error e ->
      prerr_endline e;
      1
    | Ok program ->
      let encoded = Rmt.Encoding.encode program in
      let oc = open_out_bin out in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_bytes oc encoded);
      Format.printf "wrote %s (%d bytes, %d instructions)@." out (Bytes.length encoded)
        (Array.length program.Rmt.Program.code);
      0
  in
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Output .rmtb file.")
  in
  let doc = "assemble a program into the machine-independent RMTB wire format" in
  Cmd.v (Cmd.info "assemble" ~doc) Term.(const run $ program_arg $ out_arg)

(* --------------------------------------------------------------------- *)
(* Telemetry subcommands (lib/obs, DESIGN.md section 11)                  *)
(* --------------------------------------------------------------------- *)

let iters_arg =
  let doc = "Invocations of the program before reading the telemetry." in
  Arg.(value & opt int 1000 & info [ "n"; "iters" ] ~docv:"N" ~doc)

let install_and_run path bindings engine iters ~hook =
  match parse_program path with
  | Error e ->
    prerr_endline e;
    None
  | Ok program ->
    let control = Rmt.Control.create ~engine () in
    (match Rmt.Control.install control program with
     | Error e ->
       prerr_endline e;
       None
     | Ok vm ->
       let b = Rmt.Batch.create ~capacity:1 in
       let ctxt = Rmt.Ctxt.of_list bindings in
       b.Rmt.Batch.ctxts.(0) <- ctxt;
       Rmt.Ctxt.watch ~name:"rkdctl" ctxt;
       Obs.Trace.set_current_hook (Obs.intern hook);
       let now () = 0 in
       for _ = 1 to iters do
         Rmt.Vm.invoke_batch vm b ~now
       done;
       Obs.Trace.set_current_hook (-1);
       Some vm)

let stats_cmd =
  let format_conv = Arg.enum [ ("text", `Text); ("prom", `Prom); ("json", `Json) ] in
  let format_arg =
    let doc = "Output format: 'text', 'prom' (Prometheus exposition) or 'json'." in
    Arg.(value & opt format_conv `Text & info [ "f"; "format" ] ~docv:"FMT" ~doc)
  in
  let diff_arg =
    let doc =
      "Print only the interval delta attributable to this invocation's runs (snapshot \
       after minus snapshot before)."
    in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let file_arg =
    let doc = "RMT program to install and run before the snapshot (optional)." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file bindings engine iters fmt diff =
    let before = Obs.Registry.snapshot () in
    let ok =
      match file with
      | None -> true
      | Some path -> install_and_run path bindings engine iters ~hook:"rkdctl/stats" <> None
    in
    if not ok then 1
    else begin
      let after = Obs.Registry.snapshot () in
      let snap = if diff then Obs.Snapshot.diff ~before ~after else after in
      print_string
        (match fmt with
         | `Text -> Obs.Snapshot.to_text snap
         | `Prom -> Obs.Snapshot.to_prometheus snap
         | `Json -> Obs.Snapshot.to_json snap);
      0
    end
  in
  let doc = "print a telemetry snapshot, optionally after installing and running a program" in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ file_arg $ ctxt_arg $ engine_arg $ iters_arg $ format_arg $ diff_arg)

let trace_cmd =
  let last_arg =
    let doc = "How many of the most recent flight-recorder events to print." in
    Arg.(value & opt int 16 & info [ "l"; "last" ] ~docv:"N" ~doc)
  in
  let capacity_arg =
    let doc = "Reconfigure the ring to at least this many slots before running." in
    Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"SLOTS" ~doc)
  in
  let run file bindings engine iters lastn capacity =
    (match capacity with Some c -> Obs.Trace.configure ~capacity:c | None -> ());
    match install_and_run file bindings engine iters ~hook:"rkdctl/trace" with
    | None -> 1
    | Some _vm ->
      Obs.Trace.freeze ();
      let events = Obs.Trace.last lastn in
      Obs.Trace.unfreeze ();
      Format.printf "flight recorder: capacity=%d emitted=%d dropped=%d@."
        (Obs.Trace.capacity ()) (Obs.Trace.emitted ()) (Obs.Trace.dropped ());
      Format.printf "  %6s %-14s %5s %-7s %6s %10s %s@." "seq" "hook" "uid" "engine" "steps"
        "result" "flags";
      List.iter
        (fun (e : Obs.Trace.event) ->
          let flags =
            String.concat ","
              (List.filter_map
                 (fun (bit, n) -> if e.Obs.Trace.flags land bit <> 0 then Some n else None)
                 [ (Obs.Trace.flag_throttled, "throttled");
                   (Obs.Trace.flag_guardrail, "guardrail");
                   (Obs.Trace.flag_privacy_denied, "privacy-denied") ])
          in
          Format.printf "  %6d %-14s %5d %-7s %6d %10d %s@." e.Obs.Trace.seq
            (if e.Obs.Trace.hook < 0 then "-" else Obs.intern_name e.Obs.Trace.hook)
            e.Obs.Trace.uid
            (if e.Obs.Trace.engine = 1 then "jit" else "interp")
            e.Obs.Trace.steps e.Obs.Trace.result
            (if flags = "" then "-" else flags))
        events;
      0
  in
  let doc = "run a program and dump the most recent flight-recorder events" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ program_arg $ ctxt_arg $ engine_arg $ iters_arg $ last_arg $ capacity_arg)

let simple name doc f = Cmd.v (Cmd.info name ~doc) Term.(const (fun () -> f (); 0) $ const ())

(* Table/ablation subcommands run on the domain pool and print their
   elapsed wall time so --domains speedups are visible interactively. *)
let timed name doc f = pooled name doc (Term.const (fun () -> timed_pass name f; 0))

let table1_cmd =
  timed "table1" "regenerate Table 1 (page prefetching)" (fun () ->
      Rkd.Report.print_table1 Format.std_formatter (Rkd.Experiment.table1 ()))

let table2_cmd =
  timed "table2" "regenerate Table 2 (scheduler mimicry)" (fun () ->
      Rkd.Report.print_table2 Format.std_formatter (Rkd.Experiment.table2 ()))

let ablations_cmd =
  timed "ablations" "run ablations A-K" (fun () -> Rkd.Report.ablations Format.std_formatter)

let overhead_cmd =
  simple "overhead" "Figure 1 family: interpreter vs JIT per-invocation cost" (fun () ->
      Rkd.Report.print_overhead Format.std_formatter (Rkd.Experiment.vm_overhead ()))

let shapes_cmd =
  timed "shapes" "regenerate both tables and evaluate the shape checks" (fun () ->
      let t1 = Rkd.Experiment.table1 () in
      let t2 = Rkd.Experiment.table2 () in
      Rkd.Report.print_table1 Format.std_formatter t1;
      Rkd.Report.print_table2 Format.std_formatter t2;
      List.iter
        (fun (name, ok) -> Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") name)
        (Rkd.Report.shape_checks t1 t2))

let main =
  let doc =
    "reconfigurable kernel datapaths with learned optimizations (HotOS '21 reproduction)"
  in
  Cmd.group
    (Cmd.info "rkdctl" ~version:"1.0.0" ~doc)
    [ verify_cmd; resources_cmd; analyze_cmd; mc_cmd; disasm_cmd; run_cmd; assemble_cmd;
      absint_fuzz_cmd;
      decode_fuzz_cmd; chaos_cmd; net_cmd; serve_cmd; fleet_cmd; stats_cmd; trace_cmd;
      table1_cmd;
      table2_cmd;
      ablations_cmd; overhead_cmd; shapes_cmd ]

let () = exit (Cmd.eval' main)
