(** Deterministic SplitMix64 pseudo-random number generator.

    Every stochastic component in the repository (workload generators, SGD
    shuffling, NAS search, DP noise) draws from an explicit [Rng.t] so that
    experiments are reproducible bit-for-bit from a seed.  The integer
    draws ([next], [int], [bool], [shuffle]) allocate nothing. *)

type t

val create : int -> t
(** [create seed] builds a generator; equal seeds yield equal streams. *)

val next : t -> int
(** Uniform in \[0, 2^62). *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). [bound] must be positive. *)

val bool : t -> bool
val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val uniform : t -> float
(** Uniform in \[0, 1). *)

val geometric : t -> p:float -> int
(** Number of failures before the first success; [p] in (0, 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th substream of [t]'s current state: a
    statistically independent generator keyed by the index.  Pure — the
    parent is not advanced, and equal (state, index) pairs yield equal
    substreams.  This is the primitive behind the parallel experiment
    engine's determinism contract: task [i] draws from [split t i]
    regardless of which domain runs it, so parallel results are
    bit-identical to sequential ones.  Raises [Invalid_argument] on a
    negative index. *)
