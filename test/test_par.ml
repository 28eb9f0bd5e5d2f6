(* Domain-pool tests: combinator results against sequential oracles,
   claiming under skewed task sizes, exception propagation,
   nested batches, shutdown fallback, the [Par.replay] harness — and the
   experiment engine's determinism contract: domains=1 and domains=4
   must produce bit-identical tables and ablations. *)

let with_pool domains f =
  let pool = Par.create ~domains () in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () -> f pool)

(* ---------------- combinators vs. sequential oracles ---------------- *)

let prop_parallel_map_matches_seq =
  QCheck2.Test.make ~name:"parallel_map = List.map (order preserved)" ~count:30
    QCheck2.Gen.(pair (int_range 1 5) (list_size (int_range 0 200) (int_range (-1000) 1000)))
    (fun (domains, xs) ->
      let f x = (x * x) - (3 * x) + 7 in
      with_pool domains (fun pool -> Par.parallel_map pool f xs = List.map f xs))

(* Batches of 2-4 items included: every batch of two or more items goes
   through the shared cursor. *)
let prop_parallel_map_array_sizes =
  QCheck2.Test.make ~name:"parallel_map_array = Array.map for every batch size" ~count:100
    QCheck2.Gen.(pair (int_range 1 4) (int_range 0 64))
    (fun (domains, n) ->
      let arr = Array.init n (fun i -> (i * 13) mod 97) in
      let f x = x + 1 in
      with_pool domains (fun pool -> Par.parallel_map_array pool f arr = Array.map f arr))

let test_run_tasks_order () =
  with_pool 4 (fun pool ->
      (* Skewed task costs leave the other domains claiming the rest of
         the batch; results must stay in order. *)
      let tasks =
        List.init 16 (fun i ->
            fun () ->
              let spin = if i = 0 then 200_000 else 1_000 in
              let acc = ref 0 in
              for k = 1 to spin do
                acc := !acc + (k mod 7)
              done;
              ignore !acc;
              i * 10)
      in
      Alcotest.(check (list int))
        "ordered" (List.init 16 (fun i -> i * 10))
        (Par.run_tasks pool tasks))

let test_empty_and_singleton () =
  with_pool 3 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Par.parallel_map pool (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 42 ] (Par.parallel_map pool (fun x -> x + 1) [ 41 ]);
      Alcotest.(check (array int)) "empty array" [||] (Par.parallel_map_array pool (fun x -> x) [||]))

let test_exception_propagation () =
  with_pool 4 (fun pool ->
      Alcotest.check_raises "task exception reaches the submitter" (Failure "boom") (fun () ->
          ignore
            (Par.parallel_map pool
               (fun i -> if i = 13 then failwith "boom" else i)
               (List.init 64 Fun.id)));
      (* the pool must survive a failed batch *)
      Alcotest.(check (list int)) "pool still works" [ 2; 4; 6 ]
        (Par.parallel_map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_nested_batches () =
  with_pool 4 (fun pool ->
      (* inner batches run inline on the worker — no deadlock, same result *)
      let sums =
        Par.parallel_map pool
          (fun base -> List.fold_left ( + ) 0 (Par.parallel_map pool (fun i -> base + i) (List.init 10 Fun.id)))
          (List.init 8 (fun b -> 100 * b))
      in
      let expect = List.init 8 (fun b -> (10 * 100 * b) + 45) in
      Alcotest.(check (list int)) "nested sums" expect sums)

let test_sequential_pool_and_shutdown () =
  let pool = Par.create ~domains:1 () in
  Alcotest.(check (list int)) "inline" [ 1; 4; 9 ] (Par.parallel_map pool (fun x -> x * x) [ 1; 2; 3 ]);
  Par.shutdown pool;
  let pool4 = Par.create ~domains:4 () in
  Par.shutdown pool4;
  Par.shutdown pool4;
  (* submitting after shutdown degrades to the sequential fallback *)
  Alcotest.(check (list int)) "after shutdown" [ 0; 2; 4 ]
    (Par.parallel_map pool4 (fun x -> 2 * x) [ 0; 1; 2 ])

(* ---------------- the replay harness ---------------- *)

let test_replay_restores_width () =
  let before = Par.global_domains () in
  ignore (Par.replay ~widths:[ 1; 4 ] ignore);
  Alcotest.(check int) "width restored" before (Par.global_domains ());
  Alcotest.check_raises "thunk exception reaches the caller" (Failure "boom") (fun () ->
      ignore (Par.replay ~widths:[ 1; 4 ] (fun () -> failwith "boom")));
  Alcotest.(check int) "width restored after a raise" before (Par.global_domains ())

let test_replay_catches_width_dependence () =
  Alcotest.(check (list (pair int int)))
    "each run sees its own width" [ (1, 1); (4, 4) ]
    (Par.replay ~widths:[ 1; 4 ] Par.global_domains)

(* ---------------- determinism contract ---------------- *)

(* Run an experiment at domains=1 and domains=4 on the global pool and
   require structurally (hence bit-) identical rows.  These are the
   fan-outs the macro harness parallelizes; the contract is what lets
   the control plane retrain/re-evaluate on all cores without changing
   any published number. *)
let test_determinism_table1 () =
  let runs = Par.replay ~widths:[ 1; 4 ] (fun () -> Rkd.Experiment.table1 ()) in
  let par = List.assoc 4 runs in
  Alcotest.(check bool) "table1 rows bit-identical" true (List.assoc 1 runs = par);
  Alcotest.(check int) "row count" 6 (List.length par);
  (* The learned rows pin every online-trained tree: a training change
     that alters any retrain moves at least one of these figures. *)
  let rmt_ml =
    List.filter_map
      (fun (r : Rkd.Experiment.table1_row) ->
        if r.system = "rmt-ml" then
          Some
            (Printf.sprintf "%s %.2f / %.2f / %.3f s" r.benchmark r.accuracy_pct r.coverage_pct
               r.completion_s)
        else None)
      par
  in
  Alcotest.(check (list string))
    "seed-42 rmt-ml rows"
    [ "video-resize 91.73 / 86.03 / 0.466 s"; "matrix-conv 92.47 / 95.86 / 0.684 s" ]
    rmt_ml

let test_determinism_table2_fib () =
  let runs =
    Par.replay ~widths:[ 1; 4 ] (fun () -> Rkd.Experiment.table2_benchmark ~seed:42 "fib")
  in
  let par = List.assoc 4 runs in
  Alcotest.(check bool) "table2 fib rows bit-identical" true (List.assoc 1 runs = par);
  Alcotest.(check (list string))
    "seed-42 fib rows"
    [ "fib mlp-full 96.60 / 1.580 s"; "fib mlp-lean 93.19 / 1.547 s"; "fib linux 100.00 / 1.585 s" ]
    (List.map
       (fun (r : Rkd.Experiment.table2_row) ->
         Printf.sprintf "%s %s %.2f / %.3f s" r.benchmark r.system r.accuracy_pct r.jct_s)
       par)

let test_determinism_ablation_window () =
  let runs = Par.replay ~widths:[ 1; 4 ] (fun () -> Rkd.Experiment.ablation_window ()) in
  let par = List.assoc 4 runs in
  Alcotest.(check bool) "window ablation bit-identical" true (List.assoc 1 runs = par);
  Alcotest.(check (list string))
    "seed-42 window rows"
    [ "128 92.46 / 98.30";
      "256 92.25 / 97.49";
      "512 92.47 / 95.86";
      "1024 94.12 / 92.76";
      "2048 92.66 / 86.25";
      "4096 94.94 / 73.40" ]
    (List.map
       (fun (r : Rkd.Experiment.window_row) ->
         Printf.sprintf "%d %.2f / %.2f" r.retrain_period r.accuracy_pct r.coverage_pct)
       par)

(* Shared with [Test_misc]'s model-family shape test so that tier-1 runs
   this ablation once per width, not a third time. *)
let model_family_runs =
  lazy (Par.replay ~widths:[ 1; 4 ] (fun () -> Rkd.Experiment.ablation_model_family ()))

let test_determinism_ablation_model_family () =
  let runs = Lazy.force model_family_runs in
  let par = List.assoc 4 runs in
  Alcotest.(check bool) "model-family ablation bit-identical" true (List.assoc 1 runs = par);
  Alcotest.(check (list string))
    "seed-42 model-family rows"
    [ "tree 100.00% 0/2/28 kernel (integer)";
      "qmlp 99.49% 1039/2/1104 userspace (float)";
      "int-svm 99.21% 45/2/62 userspace (float)";
      "perceptron 97.23% 32/2/64 kernel (integer)" ]
    (List.map
       (fun (r : Rkd.Experiment.family_row) ->
         Printf.sprintf "%s %.2f%% %d/%d/%d %s" r.family r.accuracy_pct r.f_macs
           r.f_comparisons r.f_memory_words r.train_side)
       par)

let suite =
  [ ( "par",
      [ QCheck_alcotest.to_alcotest prop_parallel_map_matches_seq;
        QCheck_alcotest.to_alcotest prop_parallel_map_array_sizes;
        Alcotest.test_case "run_tasks order under stealing" `Quick test_run_tasks_order;
        Alcotest.test_case "empty and singleton batches" `Quick test_empty_and_singleton;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "nested batches" `Quick test_nested_batches;
        Alcotest.test_case "sequential pool and shutdown" `Quick
          test_sequential_pool_and_shutdown;
        Alcotest.test_case "replay restores the width" `Quick test_replay_restores_width;
        Alcotest.test_case "replay catches width dependence" `Quick
          test_replay_catches_width_dependence ] );
    ( "par-determinism",
      [ Alcotest.test_case "table1: domains 1 = 4" `Quick test_determinism_table1;
        Alcotest.test_case "table2 fib: domains 1 = 4" `Quick test_determinism_table2_fib;
        Alcotest.test_case "ablation window: domains 1 = 4" `Quick
          test_determinism_ablation_window;
        Alcotest.test_case "ablation model-family: domains 1 = 4" `Quick
          test_determinism_ablation_model_family ] ) ]
