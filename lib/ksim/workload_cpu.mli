(** Task-set generators for the scheduling case study (§4, Table 2).

    The paper evaluates on two PARSEC applications (Blackscholes,
    Streamcluster) plus Fibonacci and matrix-multiply microbenchmarks.
    Each generator reproduces the balance/burst structure that makes load
    balancing interesting for that application:

    - [blackscholes]: embarrassingly parallel, equal-sized, CPU-bound
      worker threads (one per option chunk) — balancing mostly matters at
      startup.
    - [streamcluster]: alternating compute/synchronization phases; workers
      sleep at barriers, creating recurring transient imbalance.
    - [fib]: an unbalanced recursive spawn tree — tasks of geometrically
      varying size arriving over time; the canonical imbalance stressor.
    - [matmul]: regular data-parallel tiles, more tasks than CPUs, uniform
      sizes. *)

val by_name : string -> (unit -> Task.t list) option
(** "blackscholes" | "streamcluster" | "fib" | "matmul" with defaults. *)

val names : string list
