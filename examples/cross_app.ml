(* Cross-application optimization (paper §2.1, benefit #4):

   "our vision enables the kernel to learn the behaviors of multiple
    applications, how they relate to each other, as well as opportunities
    for joint optimizations … monitoring may detect that tasks exhibit
    producer-consumer behaviors, and activate optimizations for their
    efficient communication."

   A producer process walks an irregular page sequence; a consumer reads
   the same buffer through a different mapping a few steps behind.  Each
   stream is unpredictable in isolation — every per-process prefetcher
   scores zero — but their correlation is perfect, and only a kernel with a
   centralized view can see it.  The cross-app monitor votes over
   (consumer page − recent producer pages) deltas, confirms the coupling,
   and from then on every producer access prefetches the consumer's page.

   Run with: dune exec examples/cross_app.exe *)

let () =
  let rng = Kml.Rng.create 3 in
  let trace = Ksim.Workload_mem.producer_consumer ~rng ~producer:1 ~consumer:2 () in
  let config = { Rkd.Experiment.mem_config with Ksim.Mem_sim.cache_pages = 512 } in
  Format.printf
    "producer (pid 1) walks %d irregular pages; consumer (pid 2) replays them@."
    (Ksim.Workload_mem.length trace / 2);
  Format.printf "through a +2^20-page mapping, four steps behind.@.@.";
  let xa = Rkd.Cross_app.create () in
  List.iter
    (fun (label, prefetcher) ->
      let r = Ksim.Mem_sim.run ~config ~prefetcher trace in
      Format.printf "  %-12s accuracy %6.2f%%  coverage %6.2f%%  completion %6.3fs@." label
        (100.0 *. r.Ksim.Mem_sim.accuracy)
        (100.0 *. r.Ksim.Mem_sim.coverage)
        (float_of_int r.Ksim.Mem_sim.completion_ns /. 1e9))
    [ ("no prefetch", Ksim.Prefetcher.none);
      ("linux", Ksim.Readahead.create ());
      ("leap", Ksim.Leap.create ~depth:8 ());
      ("rmt-ml", Rkd.Prefetch_rmt.prefetcher (Rkd.Prefetch_rmt.create ()));
      ("cross-app", Rkd.Cross_app.prefetcher xa) ];
  Format.printf "@.detected couplings:@.";
  List.iter
    (fun (c : Rkd.Cross_app.coupling) ->
      Format.printf "  pid %d -> pid %d at page offset %d@." c.producer c.consumer c.delta)
    (Rkd.Cross_app.couplings xa);
  let s = Rkd.Cross_app.stats xa in
  Format.printf "cross prefetches issued on the consumer's behalf: %d@."
    s.Rkd.Cross_app.cross_prefetches;
  Format.printf
    "@.Coverage caps at ~50%%: the producer's own faults are inherently@.";
  Format.printf "unpredictable; every consumer fault is eliminated.@."
