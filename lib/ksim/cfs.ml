type decider = features:int array -> heuristic:bool -> bool

let heuristic_decider ~features:_ ~heuristic = heuristic

type event = { features : int array; heuristic : bool; decision : bool }

let n_cpus = 4
let tick_ns = 1_000_000
let balance_interval_ns = 2_000_000

(* Preemption granularity. *)
let sched_granularity_ns = 3_000_000
let max_examined_per_balance = 8

(* Simulated cache-refill penalty per migration. *)
let migration_cost_ns = 50_000

type t = {
  rqs : Runqueue.t array;
  running : Task.t option array;
  mutable now : int;
  mutable next_balance : int;
  decider : decider;
  mutable events : event list; (* newest first *)
  mutable pending : Task.t list; (* not yet arrived, sorted by arrival *)
  sleepers : Task.t Event_queue.t;
  mutable unfinished : int;
  mutable migrations : int;
  (* Migration penalty: extra work added to a migrated task, modelling cold
     caches after the move. *)
  mutable migration_penalty_ns : int;
  all_tasks : Task.t list;
}

let create ~decider task_list =
  let t =
    { rqs = Array.init n_cpus (fun cpu -> Runqueue.create ~cpu);
      running = Array.make n_cpus None;
      now = 0;
      next_balance = balance_interval_ns;
      decider;
      events = [];
      pending = List.sort (fun a b -> compare a.Task.arrival_ns b.Task.arrival_ns) task_list;
      sleepers = Event_queue.create ();
      unfinished = List.length task_list;
      migrations = 0;
      migration_penalty_ns = 0;
      all_tasks = task_list }
  in
  t

let finished t = t.unfinished = 0

let least_loaded t =
  let best = ref 0 in
  for cpu = 1 to n_cpus - 1 do
    let load rq_cpu =
      Runqueue.load t.rqs.(rq_cpu)
      + (match t.running.(rq_cpu) with Some _ -> Task.weight | None -> 0)
    in
    if load cpu < load !best then best := cpu
  done;
  !best

let cpu_load t cpu =
  Runqueue.load t.rqs.(cpu)
  + (match t.running.(cpu) with Some _ -> Task.weight | None -> 0)

let cpu_nr t cpu =
  Runqueue.nr_running t.rqs.(cpu) + (match t.running.(cpu) with Some _ -> 1 | None -> 0)

let admit_arrivals t =
  let rec go = function
    | task :: rest when task.Task.arrival_ns <= t.now ->
      let cpu = least_loaded t in
      task.Task.last_ran_ns <- t.now;
      Runqueue.enqueue t.rqs.(cpu) task;
      go rest
    | remaining -> t.pending <- remaining
  in
  go t.pending

let admit_wakeups t =
  let rec go () =
    match Event_queue.peek_time t.sleepers with
    | Some time when time <= t.now ->
      (match Event_queue.pop t.sleepers with
       | Some (_, task) ->
         if task.Task.state = Task.Sleeping then begin
           task.Task.state <- Task.Runnable;
           (* CFS wakes tasks on their previous CPU. *)
           let cpu = if task.Task.cpu >= 0 then task.Task.cpu else least_loaded t in
           Runqueue.enqueue t.rqs.(cpu) task
         end;
         go ()
       | None -> ())
    | Some _ | None -> ()
  in
  go ()

let pick_next t cpu =
  match t.running.(cpu) with
  | Some _ -> ()
  | None ->
    (match Runqueue.dequeue_min t.rqs.(cpu) with
     | Some task ->
       task.Task.state <- Task.Running;
       t.running.(cpu) <- Some task
     | None -> ())

let run_cpu t cpu =
  pick_next t cpu;
  match t.running.(cpu) with
  | None -> ()
  | Some task ->
    Task.charge task tick_ns;
    task.Task.last_ran_ns <- t.now;
    if task.Task.remaining_work_ns <= 0 then begin
      task.Task.state <- Task.Finished;
      task.Task.finish_ns <- t.now;
      t.running.(cpu) <- None;
      t.unfinished <- t.unfinished - 1;
      pick_next t cpu
    end
    else if Task.is_sleeper task && task.Task.burst_left_ns <= 0 then begin
      task.Task.state <- Task.Sleeping;
      task.Task.burst_left_ns <- task.Task.burst_ns;
      task.Task.sleep_until_ns <- t.now + task.Task.sleep_ns;
      Event_queue.push t.sleepers ~time:task.Task.sleep_until_ns task;
      t.running.(cpu) <- None;
      pick_next t cpu
    end
    else begin
      (* Preemption: yield if someone is behind by more than the
         granularity. *)
      let rq = t.rqs.(cpu) in
      if Runqueue.nr_running rq > 0 then begin
        let queued_min = Runqueue.min_vruntime rq in
        if task.Task.vruntime - queued_min > sched_granularity_ns then begin
          task.Task.state <- Task.Runnable;
          t.running.(cpu) <- None;
          Runqueue.enqueue rq task;
          pick_next t cpu
        end
      end
    end

let busiest_and_idlest t =
  let busiest = ref 0 and idlest = ref 0 in
  for cpu = 1 to n_cpus - 1 do
    if cpu_load t cpu > cpu_load t !busiest then busiest := cpu;
    if cpu_load t cpu < cpu_load t !idlest then idlest := cpu
  done;
  (!busiest, !idlest)

let balance t =
  let src, dst = busiest_and_idlest t in
  if src <> dst then begin
    let imbalance () = cpu_load t src - cpu_load t dst in
    if imbalance () > Task.weight / 2 then begin
      let candidates = Runqueue.to_list t.rqs.(src) in
      let examined = ref 0 in
      List.iter
        (fun task ->
          if
            !examined < max_examined_per_balance
            && imbalance () > Task.weight / 2
          then begin
            let inputs =
              { Lb_features.now_ns = t.now;
                src_nr_running = cpu_nr t src;
                dst_nr_running = cpu_nr t dst;
                src_load = cpu_load t src;
                dst_load = cpu_load t dst;
                task;
                src_min_vruntime = Runqueue.min_vruntime t.rqs.(src);
                examined_before = !examined }
            in
            incr examined;
            let features = Lb_features.extract inputs in
            let heuristic = Lb_features.heuristic inputs in
            let decision = t.decider ~features ~heuristic in
            t.events <- { features; heuristic; decision } :: t.events;
            if decision && Runqueue.remove t.rqs.(src) task then begin
              (* vruntime renormalization across queues, as CFS does. *)
              task.Task.vruntime <-
                task.Task.vruntime
                - Runqueue.min_vruntime t.rqs.(src)
                + Runqueue.min_vruntime t.rqs.(dst);
              task.Task.migrations <- task.Task.migrations + 1;
              (* Cold-cache penalty: the task must re-fetch its working set. *)
              task.Task.remaining_work_ns <-
                task.Task.remaining_work_ns + migration_cost_ns;
              t.migration_penalty_ns <- t.migration_penalty_ns + migration_cost_ns;
              t.migrations <- t.migrations + 1;
              Runqueue.enqueue t.rqs.(dst) task
            end
          end)
        candidates
    end
  end

let step t =
  t.now <- t.now + tick_ns;
  admit_arrivals t;
  admit_wakeups t;
  for cpu = 0 to n_cpus - 1 do
    run_cpu t cpu
  done;
  if t.now >= t.next_balance then begin
    balance t;
    t.next_balance <- t.now + balance_interval_ns
  end

let run t =
  let max_ns = 600_000_000_000 in
  while (not (finished t)) && t.now < max_ns do
    step t
  done;
  if not (finished t) then failwith "Cfs.run: horizon reached with unfinished tasks";
  t.now

let events t = List.rev t.events
let migrations t = t.migrations

let tasks t = t.all_tasks
