(* The benchmark behind BENCHMARK.json (see README.md here).

   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Prints what it measures as it goes, then one JSON line: the end-to-end
   metrics in an untraced run (--trace 0), the per-layer ledger in a
   traced one (--trace 1). *)

open Perfkit

let workloads = [ "serve-bursty"; "learn-prefetch"; "infer-prefetch" ]

(* The one list of metric names and units, in BENCHMARK.json order.  The
   workloads report (name, value) pairs; every workload reports every
   end-to-end metric, and a layer a workload never calls reads 0. *)
let end_to_end_catalogue =
  [ ("setup_s", "s"); ("events_per_s", "1/s"); ("top_heap_mb", "MB") ]

let per_layer_catalogue =
  [ ("ledger.wall_s", "s");
    ("ledger.unattributed_ns", "ns");
    ("serve.submit_ns", "ns");
    ("serve.drain_self_ns", "ns");
    ("dp.sink_ns", "ns");
    ("dp.batch_occupancy", "slots/batch");
    ("dp.first_touch_us", "us");
    ("rmt.table.inserts", "count");
    ("serve.events_per_drain", "events/drain");
    ("rmt.steps_per_event", "count/op");
    ("core.hook_ns", "ns");
    ("core.retrain_ms", "ms");
    ("core.retrains", "count");
    ("core.retrain_share_pct", "%");
    ("core.vm_invocations", "count/op");
    ("core.model_invocations", "count/op");
    ("kml.train_samples", "count/op");
    ("ksim.sim_self_ns", "ns");
    ("gc.minor_words", "words/op");
    ("gc.major_collections", "count");
    ("latency.p90_us", "us");
    ("load.samples", "count");
    ("load.p50_us", "us");
    ("load.p99_us", "us");
    ("load.p999_us", "us");
    ("load.tail_pct", "%");
    ("load.tail_us", "us");
    ("load.late_max_us", "us");
    ("load.backlog_max", "count");
    ("load.backpressure", "count");
    ("trace.overhead_pct", "%");
    ("trace.spans_dropped", "count") ]

(* (name, unit, value) in catalogue order; [missing] gives the value of a
   metric the workload did not report. *)
let with_units catalogue ~missing measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then failwith ("metric not in the catalogue: " ^ name))
    measured;
  List.map
    (fun (name, unit_) ->
      (name, unit_, match List.assoc_opt name measured with Some v -> v | None -> missing name))
    catalogue

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: s :: rest ->
      seed := Some (int_of_string s);
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := int_of_string s;
      parse rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || !seconds < 1 then usage ();
  (* Pin the environment: no fault plan whatever RKD_FAULTS says, and
     telemetry on whatever RKD_OBS says.  Every workload runs on one
     domain: the global pool that online retraining reaches for is pinned
     to width 1, never derived from the core count or RKD_DOMAINS, since
     an idle pool domain still takes part in every stop-the-world minor
     collection. *)
  Rmt.Fault.clear_global ();
  Obs.set_enabled true;
  Par.set_global_domains 1;
  let serve = !workload = "serve-bursty" in
  let seed =
    match !seed with
    | Some s -> s
    | None -> if serve then Serve_bench.default_seed else Prefetch_bench.default_seed
  in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" !workload seed !seconds
    (if !trace then 1 else 0);
  Printf.printf "  settings: faults=none obs=on domains=%d nproc=%d ocaml=%s\n%!"
    (Par.global_domains ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let result =
    if serve then Serve_bench.run ~seed ~seconds:!seconds ~trace:!trace
    else Prefetch_bench.run ~name:!workload ~seed ~seconds:!seconds ~trace:!trace
  in
  let metrics =
    if !trace then with_units per_layer_catalogue ~missing:(fun _ -> 0.0) result.Out.per_layer
    else
      with_units end_to_end_catalogue
        ~missing:(fun name -> failwith ("end-to-end metric not reported: " ^ name))
        result.Out.end_to_end
  in
  Printf.printf "  attempted %d, failed %d (failed share %.4f), outputs %s\n" result.Out.attempted
    result.Out.failed
    (Out.ratio result.Out.failed result.Out.attempted)
    (if result.Out.correct then "correct" else "WRONG");
  Out.print_json result metrics
