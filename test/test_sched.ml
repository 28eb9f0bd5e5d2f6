(* Tests for the CFS scheduler substrate: task accounting, runqueue,
   scheduler invariants, feature extraction and the simulation driver. *)

(* ---------------- Task ---------------- *)

let test_task_charge () =
  let t = Ksim.Task.create ~id:1 ~total_work_ns:10_000 () in
  Ksim.Task.charge t 1_000;
  Alcotest.(check int) "remaining" 9_000 t.Ksim.Task.remaining_work_ns;
  (* nice 0: vruntime advances with CPU time *)
  Alcotest.(check int) "vruntime" 1_000 t.Ksim.Task.vruntime;
  Alcotest.(check int) "runtime" 1_000 t.Ksim.Task.runtime_ns

let test_task_validation () =
  Alcotest.check_raises "zero work" (Invalid_argument "Task.create: total work must be positive")
    (fun () -> ignore (Ksim.Task.create ~id:0 ~total_work_ns:0 ()))

(* ---------------- Runqueue ---------------- *)

let test_runqueue_order () =
  let rq = Ksim.Runqueue.create ~cpu:0 in
  let mk id vruntime =
    let t = Ksim.Task.create ~id ~total_work_ns:1000 () in
    t.Ksim.Task.vruntime <- vruntime;
    t
  in
  Ksim.Runqueue.enqueue rq (mk 1 30);
  Ksim.Runqueue.enqueue rq (mk 2 10);
  Ksim.Runqueue.enqueue rq (mk 3 20);
  Alcotest.(check int) "nr" 3 (Ksim.Runqueue.nr_running rq);
  Alcotest.(check int) "load" (3 * 1024) (Ksim.Runqueue.load rq);
  let next = Option.get (Ksim.Runqueue.dequeue_min rq) in
  Alcotest.(check int) "min vruntime first" 2 next.Ksim.Task.id;
  Alcotest.(check int) "min_vruntime floor advanced" 20 (Ksim.Runqueue.min_vruntime rq)

let test_runqueue_remove () =
  let rq = Ksim.Runqueue.create ~cpu:0 in
  let t1 = Ksim.Task.create ~id:1 ~total_work_ns:1000 () in
  let t2 = Ksim.Task.create ~id:2 ~total_work_ns:1000 () in
  Ksim.Runqueue.enqueue rq t1;
  Ksim.Runqueue.enqueue rq t2;
  Alcotest.(check bool) "remove" true (Ksim.Runqueue.remove rq t1);
  Alcotest.(check bool) "double remove" false (Ksim.Runqueue.remove rq t1);
  Alcotest.(check int) "load updated" 1024 (Ksim.Runqueue.load rq)

let test_runqueue_wakeup_clamps_vruntime () =
  let rq = Ksim.Runqueue.create ~cpu:0 in
  let hog = Ksim.Task.create ~id:1 ~total_work_ns:1_000_000 () in
  hog.Ksim.Task.vruntime <- 1_000_000;
  Ksim.Runqueue.enqueue rq hog;
  ignore (Ksim.Runqueue.dequeue_min rq);
  let sleeper = Ksim.Task.create ~id:2 ~total_work_ns:1000 () in
  Ksim.Runqueue.enqueue rq sleeper;
  (* a task that slept forever cannot monopolize: clamped to min_vruntime *)
  Alcotest.(check int) "clamped" 1_000_000 sleeper.Ksim.Task.vruntime

(* ---------------- CFS invariants ---------------- *)

let run_workload name =
  let tasks = Option.get (Ksim.Workload_cpu.by_name name) () in
  let sched = Ksim.Cfs.create ~decider:Ksim.Cfs.heuristic_decider tasks in
  let jct = Ksim.Cfs.run sched in
  (sched, tasks, jct)

let test_cfs_completes_all_tasks () =
  List.iter
    (fun name ->
      let sched, tasks, jct = run_workload name in
      Alcotest.(check bool) (name ^ " finished") true (Ksim.Cfs.finished sched);
      Alcotest.(check bool) (name ^ " jct positive") true (jct > 0);
      List.iter
        (fun (t : Ksim.Task.t) ->
          Alcotest.(check bool) "task finished" true (t.Ksim.Task.state = Ksim.Task.Finished);
          Alcotest.(check bool) "work done" true (t.Ksim.Task.remaining_work_ns <= 0);
          Alcotest.(check bool) "finish after arrival" true
            (t.Ksim.Task.finish_ns >= t.Ksim.Task.arrival_ns))
        tasks)
    Ksim.Workload_cpu.names

let test_cfs_work_conservation () =
  (* Eight CPU-bound tasks placed round-robin on the 4 CPUs, two per CPU:
     the makespan must equal each CPU's total work (up to one 1 ms tick),
     so nothing is lost or duplicated. *)
  let tasks =
    List.init 8 (fun id -> Ksim.Task.create ~id ~total_work_ns:20_000_000 ())
  in
  let sched = Ksim.Cfs.create ~decider:Ksim.Cfs.heuristic_decider tasks in
  let jct = Ksim.Cfs.run sched in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %d ~ 40ms" jct)
    true
    (abs (jct - 40_000_000) <= 1_000_000)

let test_cfs_fairness () =
  (* Eight infinite-ish tasks, two per CPU: runtimes stay within two 3 ms
     preemption granularities of each other. *)
  let tasks =
    List.init 8 (fun id -> Ksim.Task.create ~id ~total_work_ns:300_000_000 ())
  in
  let sched = Ksim.Cfs.create ~decider:Ksim.Cfs.heuristic_decider tasks in
  for _ = 1 to 100 do
    Ksim.Cfs.step sched
  done;
  let runtimes = List.map (fun (t : Ksim.Task.t) -> t.Ksim.Task.runtime_ns) tasks in
  let r1 = List.fold_left min max_int runtimes and r2 = List.fold_left max 0 runtimes in
  Alcotest.(check bool)
    (Printf.sprintf "fair shares (%d vs %d)" r1 r2)
    true
    (r2 - r1 <= 2 * 3_000_000)

let test_cfs_migrations_happen () =
  let sched, _, _ = run_workload "fib" in
  Alcotest.(check bool) "some migrations" true (Ksim.Cfs.migrations sched > 0);
  Alcotest.(check bool) "events recorded" true (List.length (Ksim.Cfs.events sched) > 0)

let test_cfs_decider_controls_migration () =
  let never ~features:_ ~heuristic:_ = false in
  let tasks = Option.get (Ksim.Workload_cpu.by_name "fib") () in
  let sched = Ksim.Cfs.create ~decider:never tasks in
  ignore (Ksim.Cfs.run sched);
  Alcotest.(check int) "no migrations when decider refuses" 0 (Ksim.Cfs.migrations sched)

let test_cfs_determinism () =
  let _, _, jct1 = run_workload "streamcluster" in
  let _, _, jct2 = run_workload "streamcluster" in
  Alcotest.(check int) "deterministic makespan" jct1 jct2

(* ---------------- Lb_features ---------------- *)

let mk_inputs ?(now_ns = 1_000_000) ?(src_load = 4096) ?(dst_load = 1024) ?(last_ran = 0)
    ?(remaining = 10_000_000) ?(migrations = 0) () =
  let task = Ksim.Task.create ~id:1 ~total_work_ns:remaining () in
  task.Ksim.Task.last_ran_ns <- last_ran;
  task.Ksim.Task.migrations <- migrations;
  { Ksim.Lb_features.now_ns;
    src_nr_running = src_load / 1024;
    dst_nr_running = dst_load / 1024;
    src_load;
    dst_load;
    task;
    src_min_vruntime = 0;
    examined_before = 0 }

let test_features_arity () =
  let f = Ksim.Lb_features.extract (mk_inputs ()) in
  Alcotest.(check int) "15 features" Ksim.Lb_features.n_features (Array.length f);
  Alcotest.(check int) "names aligned" Ksim.Lb_features.n_features
    (Array.length Ksim.Lb_features.names);
  Alcotest.(check int) "imbalance feature" 3072 f.(4)

let test_heuristic_rules () =
  (* small imbalance -> refuse *)
  Alcotest.(check bool) "small imbalance" false
    (Ksim.Lb_features.heuristic (mk_inputs ~src_load:1024 ~dst_load:1024 ()));
  (* cache-hot and not severe -> refuse *)
  Alcotest.(check bool) "cache hot" false
    (Ksim.Lb_features.heuristic
       (mk_inputs ~now_ns:1_000_000 ~last_ran:900_000 ~src_load:2048 ~dst_load:0 ()));
  (* cold and imbalanced -> migrate *)
  Alcotest.(check bool) "cold migrate" true
    (Ksim.Lb_features.heuristic (mk_inputs ~now_ns:10_000_000 ~last_ran:0 ()));
  (* nearly done -> refuse *)
  Alcotest.(check bool) "nearly done" false
    (Ksim.Lb_features.heuristic (mk_inputs ~now_ns:10_000_000 ~remaining:100_000 ()));
  (* bounced too often -> refuse unless severe *)
  Alcotest.(check bool) "migration-weary" false
    (Ksim.Lb_features.heuristic
       (mk_inputs ~now_ns:10_000_000 ~migrations:20 ~src_load:2048 ~dst_load:512 ()))

(* ---------------- Sched_sim ---------------- *)

let test_collect_produces_dataset () =
  let ds, result = Ksim.Sched_sim.collect ~workload:"streamcluster" () in
  Alcotest.(check bool) "many decisions" true (Kml.Dataset.length ds > 500);
  Alcotest.(check int) "15 features" 15 (Kml.Dataset.n_features ds);
  Alcotest.(check (float 0.0001)) "heuristic agrees with itself" 1.0
    result.Ksim.Sched_sim.agreement;
  (* both classes present *)
  let counts = Kml.Dataset.class_counts ds in
  Alcotest.(check bool) "both labels occur" true (counts.(0) > 0 && counts.(1) > 0)

let test_run_with_constant_decider () =
  let always ~features:_ ~heuristic:_ = true in
  let r = Ksim.Sched_sim.run ~workload:"matmul" ~decider_name:"always" always in
  Alcotest.(check string) "name" "always" r.Ksim.Sched_sim.decider;
  Alcotest.(check bool) "jct positive" true (r.Ksim.Sched_sim.jct_ns > 0);
  Alcotest.(check bool) "agreement below 1" true (r.Ksim.Sched_sim.agreement < 1.0)

let suite =
  [ ( "task",
      [ Alcotest.test_case "charge" `Quick test_task_charge;
        Alcotest.test_case "validation" `Quick test_task_validation ] );
    ( "runqueue",
      [ Alcotest.test_case "order" `Quick test_runqueue_order;
        Alcotest.test_case "remove" `Quick test_runqueue_remove;
        Alcotest.test_case "wakeup clamps vruntime" `Quick
          test_runqueue_wakeup_clamps_vruntime ] );
    ( "cfs",
      [ Alcotest.test_case "completes all tasks" `Quick test_cfs_completes_all_tasks;
        Alcotest.test_case "work conservation" `Quick test_cfs_work_conservation;
        Alcotest.test_case "fairness" `Quick test_cfs_fairness;
        Alcotest.test_case "migrations happen" `Quick test_cfs_migrations_happen;
        Alcotest.test_case "decider controls migration" `Quick
          test_cfs_decider_controls_migration;
        Alcotest.test_case "determinism" `Quick test_cfs_determinism ] );
    ( "lb_features",
      [ Alcotest.test_case "arity" `Quick test_features_arity;
        Alcotest.test_case "heuristic rules" `Quick test_heuristic_rules ] );
    ( "sched_sim",
      [ Alcotest.test_case "collect dataset" `Quick test_collect_produces_dataset;
        Alcotest.test_case "constant decider" `Quick test_run_with_constant_decider ] ) ]
