(** Multicore CFS-style scheduler with periodic load balancing.

    The scheduler is tick-driven: every tick each CPU charges its
    running task, handles sleep/finish transitions and preemption by
    vruntime, and every balance interval a balancing pass pulls tasks
    from the busiest to the idlest CPU.  Each pull candidate goes through
    the pluggable {e migration decider} — the [can_migrate_task] decision
    point of case study 2.  Every consultation is recorded (features,
    heuristic label, actual decision), which is both the ML training-data
    collection path and the accuracy monitor. *)

type decider = features:int array -> heuristic:bool -> bool

val heuristic_decider : decider
(** Follows the CFS heuristic (ignores nothing, returns [heuristic]). *)

type event = { features : int array; heuristic : bool; decision : bool }

type t

val create : decider:decider -> Task.t list -> t
(** Tasks enter at their [arrival_ns]; initial placement is round-robin
    over 4 CPUs.  Ticks are 1 ms, balancing runs every 2 ms and examines
    at most 8 tasks, the preemption granularity is 3 ms and a migration
    adds 50 us of cache-refill work to the moved task. *)

val finished : t -> bool
val step : t -> unit
(** Advance one tick. *)

val run : t -> int
(** Run to completion (or the 600 s horizon); returns the makespan in ns.
    Raises [Failure] if the horizon is hit with unfinished tasks. *)

val events : t -> event list
(** Migration-decision log, oldest first. *)

val migrations : t -> int
val tasks : t -> Task.t list
