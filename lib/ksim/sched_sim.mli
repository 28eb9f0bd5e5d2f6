(** Scheduler-simulation driver: runs a workload under a migration decider
    and reports the Table 2 quantities.

    [collect] runs the Linux heuristic and converts the decision log into a
    {!Kml.Dataset.t} (label 1 = migrate) — the offline-training data path.
    [run] measures job completion time and decision-agreement accuracy
    under any decider. *)

type result = {
  workload : string;
  decider : string;
  jct_ns : int;                 (** makespan until every task finished *)
  migrations : int;
  decisions : int;              (** migration-decision consultations *)
  agreement : float;            (** fraction of decisions equal to the heuristic's *)
  mean_task_ns : float;         (** mean per-task completion (finish - arrival) *)
}

val run : workload:string -> decider_name:string -> Cfs.decider -> result
(** Raises [Invalid_argument] on an unknown workload name. *)

val collect : workload:string -> unit -> Kml.Dataset.t * result
(** Heuristic run + dataset of (features → heuristic label). *)
