let ms = 1_000_000

let blackscholes () =
  let workers = 48 and work_ms = 250 in
  (* Option chunks are not perfectly equal and worker threads start in
     waves as the main thread partitions the input, so per-worker work and
     arrival are skewed — this is what gives the load balancer work. *)
  List.init workers (fun id ->
      let work = work_ms * (60 + (9 * (id mod 10))) / 100 in
      Task.create ~id ~arrival_ns:(id mod 8 * 120 * ms) ~total_work_ns:(work * ms) ())

let streamcluster () =
  let workers = 16 and phases = 40 and phase_ms = 40 in
  (* Workers compute for a phase then sleep at the barrier; modelled as a
     burst/sleep cycle with slightly skewed per-worker phase lengths so the
     barrier wait (sleep) differs per worker, creating imbalance. *)
  List.init workers (fun id ->
      let skew = 1 + (id mod 3) in
      Task.create ~id
        ~burst_ns:(phase_ms * ms)
        ~sleep_ns:(skew * phase_ms * ms / 4)
        ~total_work_ns:(phases * phase_ms * ms)
        ())

let fib () =
  let depth = 11 and unit_ms = 8 in
  (* Unbalanced spawn tree: a node at depth d has work ~ fib(depth - d) time
     units and spawns two children that arrive staggered, like a
     fork-join fib(n) decomposition. *)
  let rec fib_units n = if n <= 1 then 1 else fib_units (n - 1) + fib_units (n - 2) in
  let tasks = ref [] in
  let next_id = ref 0 in
  let rec spawn level arrival_ns =
    if level >= 0 then begin
      let id = !next_id in
      incr next_id;
      let work = fib_units level * unit_ms * ms / 2 in
      tasks :=
        Task.create ~id ~arrival_ns ~total_work_ns:(Stdlib.max ms work) () :: !tasks;
      let child_delay = unit_ms * ms / 2 in
      spawn (level - 1) (arrival_ns + child_delay);
      spawn (level - 2) (arrival_ns + (2 * child_delay))
    end
  in
  spawn depth 0;
  List.rev !tasks

let matmul () =
  let tiles = 96 and tile_ms = 60 in
  (* Border tiles are smaller than interior tiles; tiles are spawned in
     waves of eight as the driver walks the output matrix. *)
  List.init tiles (fun id ->
      let work = if id mod 8 < 2 then tile_ms * 6 / 10 else tile_ms in
      Task.create ~id ~arrival_ns:(id / 8 * 100 * ms) ~total_work_ns:(work * ms) ())

let by_name = function
  | "blackscholes" -> Some blackscholes
  | "streamcluster" -> Some streamcluster
  | "fib" -> Some fib
  | "matmul" -> Some matmul
  | _ -> None

let names = [ "blackscholes"; "streamcluster"; "fib"; "matmul" ]
