(** Output guardrails for blackbox models (§3.3 "Model safety"): clamp an
    action result to an admissible range and count how often the raw model
    output fell outside it — a cheap runtime monitor for model drift.

    Besides the lifetime total, a rolling window tracks the {e recent}
    violation rate, which the circuit breaker (DESIGN.md section 12) uses
    as its guardrail-storm open trigger. *)

type t

val create : lo:int -> hi:int -> t
(** Raises [Invalid_argument] when [lo > hi].  Window size 256. *)

val create_windowed : window:int -> lo:int -> hi:int -> t
(** Like {!create} with an explicit violation-rate window; raises
    [Invalid_argument] when [window <= 0]. *)

val apply : t -> int -> int
val violations : t -> int
(** Number of [apply] calls whose input required clamping (lifetime). *)

val violation_rate_ge : t -> float -> bool
(** [violation_rate_ge t r] holds when the violation fraction over the
    recent window is [>= r]: the current window once it holds at least 8
    observations, the last completed window before that (0 initially).
    A 100%-violation storm is visible within ~8 calls.  Returns no float,
    so it is usable on allocation-free hot paths. *)
