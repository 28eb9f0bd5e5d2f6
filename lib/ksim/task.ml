type state = Runnable | Running | Sleeping | Finished

type t = {
  id : int;
  burst_ns : int;
  sleep_ns : int;
  arrival_ns : int;
  total_work_ns : int;
  mutable state : state;
  mutable vruntime : int;
  mutable remaining_work_ns : int;
  mutable burst_left_ns : int;
  mutable sleep_until_ns : int;
  mutable cpu : int;
  mutable last_ran_ns : int;
  mutable runtime_ns : int;
  mutable migrations : int;
  mutable finish_ns : int;
}

let weight = 1024

let create ~id ?(burst_ns = max_int) ?(sleep_ns = 0) ?(arrival_ns = 0) ~total_work_ns () =
  if total_work_ns <= 0 then invalid_arg "Task.create: total work must be positive";
  if burst_ns <= 0 then invalid_arg "Task.create: burst must be positive";
  { id;
    burst_ns;
    sleep_ns;
    arrival_ns;
    total_work_ns;
    state = Runnable;
    vruntime = 0;
    remaining_work_ns = total_work_ns;
    burst_left_ns = burst_ns;
    sleep_until_ns = 0;
    cpu = -1;
    last_ran_ns = 0;
    runtime_ns = 0;
    migrations = 0;
    finish_ns = -1 }

let is_sleeper t = t.sleep_ns > 0

let charge t dt =
  if dt < 0 then invalid_arg "Task.charge: negative time";
  t.remaining_work_ns <- t.remaining_work_ns - dt;
  t.burst_left_ns <- t.burst_left_ns - dt;
  t.runtime_ns <- t.runtime_ns + dt;
  (* vruntime advances inversely to weight, as in CFS; every task has the
     nice-0 weight, so it advances with CPU time. *)
  t.vruntime <- t.vruntime + dt
