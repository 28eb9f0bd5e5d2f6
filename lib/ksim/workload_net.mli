(** Network workload mixes for the Table 3 experiment (DESIGN.md §16).
    All randomness comes from the caller's [rng], so a scenario is a pure
    function of the seed — the parallel-harness determinism contract. *)

type scenario = {
  name : string;
  link : Link.config;
  flows : Flow.spec array;
}

val stream : unit -> scenario
(** Six long-lived equal flows over a deep queue (throughput + fairness). *)

val names : string list
val by_name : rng:Kml.Rng.t -> string -> scenario
