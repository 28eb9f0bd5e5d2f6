(** Circuit breaker guarding a learned datapath (DESIGN.md section 12).

    State machine: [Closed] (learned path serves) → [Open] (fallback
    heuristic serves) on a failure burst → [Half_open] (probe the learned
    path) once the backoff deadline passes → [Closed] again after enough
    probe successes, or back to [Open] (with doubled backoff) on a probe
    failure.

    It opens after 3 consecutive failures and closes after 2 probe
    successes.  Deterministic under the simulated clock: backoff grows
    exponentially from 1 ms to 1 s, plus up to 10% jitter drawn from the
    breaker's own rng (seeded from its name), so a fault schedule replays
    to the same transition sequence at any pool width. *)

type state = Closed | Open | Half_open

type t

val create : string -> t
(** A fresh closed breaker named for telemetry. *)

val name : t -> string
val state : t -> state
val state_code : state -> int
(** 0 = Closed, 1 = Open, 2 = Half_open (registry encoding). *)

val allow : t -> now:int -> bool
(** May the learned path serve this invocation?  [Closed]: yes.  [Open]:
    no, unless the backoff deadline has passed — then the breaker moves to
    [Half_open] and admits a probe.  [Half_open]: yes (probing). *)

val record_success : t -> now:int -> unit
val record_failure : t -> now:int -> unit
val trip : t -> now:int -> unit
(** Open immediately regardless of state (e.g. on an [Adapt] degrade
    signal); a no-op when already open. *)

val reset : t -> unit
(** Back to a fresh closed state (counters preserved). *)

val retry_at : t -> int
(** Next probe deadline (meaningful when open). *)

val opens : t -> int
val closes : t -> int
val consecutive_failures : t -> int
