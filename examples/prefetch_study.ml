(* Case study 1 (paper §4, Table 1): ML-driven page prefetching.

   Runs the video-resize and matrix-convolution traces through the
   simulated memory subsystem under the Linux readahead baseline, Leap, and
   the RMT+decision-tree prefetcher, then prints the Table 1 metrics and
   the RMT-side statistics (retrains, CALL_ML invocations, bytecode steps).

   Run with: dune exec examples/prefetch_study.exe *)

let () =
  let config = Rkd.Experiment.mem_config in
  Format.printf "memory subsystem: %d-page cache, %d ns CPU/access, %d ns swap reads@.@."
    config.Ksim.Mem_sim.cache_pages config.Ksim.Mem_sim.cpu_ns_per_access
    config.Ksim.Mem_sim.swap_service_ns;
  let benchmarks =
    [ ("video-resize", Ksim.Workload_mem.video_resize ~pid:1 ());
      ("matrix-conv", Ksim.Workload_mem.matrix_conv ~pid:1 ()) ]
  in
  List.iter
    (fun (name, trace) ->
      Format.printf "== %s: %d accesses over %d distinct pages ==@." name
        (Ksim.Workload_mem.length trace)
        (Ksim.Workload_mem.footprint trace);
      let ours = Rkd.Prefetch_rmt.create () in
      let systems =
        [ ("no prefetch", Ksim.Prefetcher.none);
          ("linux readahead", Ksim.Readahead.create ());
          ("leap", Ksim.Leap.create ~depth:4 ());
          ("rmt-ml (ours)", Rkd.Prefetch_rmt.prefetcher ours) ]
      in
      List.iter
        (fun (label, prefetcher) ->
          let r = Ksim.Mem_sim.run ~config ~prefetcher trace in
          Format.printf "  %-16s accuracy %6.2f%%  coverage %6.2f%%  completion %6.3fs@."
            label
            (100.0 *. r.Ksim.Mem_sim.accuracy)
            (100.0 *. r.Ksim.Mem_sim.coverage)
            (float_of_int r.Ksim.Mem_sim.completion_ns /. 1e9))
        systems;
      let s = Rkd.Prefetch_rmt.stats ours in
      Format.printf
        "  rmt internals: %d background retrains, %d CALL_ML inferences,@."
        s.Rkd.Prefetch_rmt.retrains s.Rkd.Prefetch_rmt.model_invocations;
      Format.printf
        "                 %d bytecode instructions over %d program invocations,@."
        s.Rkd.Prefetch_rmt.vm_steps s.Rkd.Prefetch_rmt.vm_invocations;
      Format.printf "                 one-step prediction accuracy %.1f%%, prefetch depth %d@."
        (100.0
        *. float_of_int s.Rkd.Prefetch_rmt.predictions_correct
        /. float_of_int (Stdlib.max 1 s.Rkd.Prefetch_rmt.predictions_checked))
        s.Rkd.Prefetch_rmt.current_depth;
      (match Rkd.Prefetch_rmt.tree ours with
       | Some tree ->
         Format.printf "                 current tree: %d nodes, depth %d@.@."
           (Kml.Decision_tree.n_nodes tree) (Kml.Decision_tree.depth tree)
       | None -> Format.printf "@."))
    benchmarks;
  Format.printf "Compare with the paper's Table 1 shape: ML > Leap > Linux on both@.";
  Format.printf "benchmarks, with the largest gap on the multi-stride convolution.@."
