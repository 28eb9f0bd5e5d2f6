let n_features = 15

let names =
  [| "src_nr_running";
     "dst_nr_running";
     "src_load";
     "dst_load";
     "imbalance";
     "task_weight";
     "cache_cold_us";
     "remaining_work_us";
     "migrations";
     "recent_runtime_us";
     "src_capacity";
     "dst_capacity";
     "is_sleeper";
     "vruntime_lag_us";
     "examined_before" |]

type inputs = {
  now_ns : int;
  src_nr_running : int;
  dst_nr_running : int;
  src_load : int;
  dst_load : int;
  task : Task.t;
  src_min_vruntime : int;
  examined_before : int;
}

let cache_hot_threshold_ns = 500_000

let clamp_us ns = Stdlib.min 1_000_000 (Stdlib.max 0 (ns / 1_000))

let extract i =
  let t = i.task in
  [| i.src_nr_running;
     i.dst_nr_running;
     i.src_load;
     i.dst_load;
     i.src_load - i.dst_load;
     Task.weight;
     clamp_us (i.now_ns - t.Task.last_ran_ns);
     clamp_us t.Task.remaining_work_ns;
     Stdlib.min 100 t.Task.migrations;
     clamp_us t.Task.runtime_ns;
     1024;
     1024;
     (if Task.is_sleeper t then 1 else 0);
     clamp_us (t.Task.vruntime - i.src_min_vruntime);
     i.examined_before |]

(* CFS-flavoured can_migrate_task:
   - the imbalance must be worth at least half the task's weight;
   - cache-hot tasks (ran within the migration-cost window) resist
     migration unless the imbalance is severe (more than two full tasks);
   - tasks that have already bounced around resist further migration;
   - very-close-to-done tasks are not worth moving. *)
let heuristic i =
  let t = i.task in
  let imbalance = i.src_load - i.dst_load in
  if imbalance < Task.weight / 2 then false
  else begin
    let cold_ns = i.now_ns - t.Task.last_ran_ns in
    let cache_hot = cold_ns < cache_hot_threshold_ns in
    let severe = imbalance > 2 * Task.weight in
    if cache_hot && not severe then false
    else if t.Task.migrations > 8 && not severe then false
    else if t.Task.remaining_work_ns < 200_000 then false
    else true
  end
