type result = {
  workload : string;
  decider : string;
  jct_ns : int;
  migrations : int;
  decisions : int;
  agreement : float;
  mean_task_ns : float;
}

(* Bulk-added once per simulated run, never inside the scheduler loop. *)
let c_runs = Obs.Counter.make "ksim.sched.runs"
let c_decisions = Obs.Counter.make "ksim.sched.decisions"
let c_migrations = Obs.Counter.make "ksim.sched.migrations"

let tasks_of workload =
  match Workload_cpu.by_name workload with
  | Some make -> make ()
  | None -> invalid_arg (Printf.sprintf "Sched_sim: unknown workload %s" workload)

let run ~workload ~decider_name decider =
  let tasks = tasks_of workload in
  let sched = Cfs.create ~decider tasks in
  let jct_ns = Cfs.run sched in
  let events = Cfs.events sched in
  let decisions = List.length events in
  let agree =
    List.fold_left
      (fun acc (e : Cfs.event) -> if e.decision = e.heuristic then acc + 1 else acc)
      0 events
  in
  let agreement =
    if decisions = 0 then 1.0 else float_of_int agree /. float_of_int decisions
  in
  let total_task_ns =
    List.fold_left
      (fun acc (t : Task.t) -> acc +. float_of_int (t.Task.finish_ns - t.Task.arrival_ns))
      0.0 (Cfs.tasks sched)
  in
  Obs.Counter.incr c_runs;
  Obs.Counter.add c_decisions decisions;
  Obs.Counter.add c_migrations (Cfs.migrations sched);
  { workload;
    decider = decider_name;
    jct_ns;
    migrations = Cfs.migrations sched;
    decisions;
    agreement;
    mean_task_ns = total_task_ns /. float_of_int (Stdlib.max 1 (List.length tasks)) }

let collect ~workload () =
  let tasks = tasks_of workload in
  let sched = Cfs.create ~decider:Cfs.heuristic_decider tasks in
  let jct_ns = Cfs.run sched in
  let events = Cfs.events sched in
  let ds = Kml.Dataset.create ~n_features:Lb_features.n_features ~n_classes:2 in
  List.iter
    (fun (e : Cfs.event) ->
      Kml.Dataset.add ds
        { Kml.Dataset.features = e.features; label = (if e.heuristic then 1 else 0) })
    events;
  let decisions = List.length events in
  let total_task_ns =
    List.fold_left
      (fun acc (t : Task.t) -> acc +. float_of_int (t.Task.finish_ns - t.Task.arrival_ns))
      0.0 (Cfs.tasks sched)
  in
  ( ds,
    { workload;
      decider = "linux-cfs";
      jct_ns;
      migrations = Cfs.migrations sched;
      decisions;
      agreement = 1.0;
      mean_task_ns = total_task_ns /. float_of_int (Stdlib.max 1 (List.length tasks)) } )
