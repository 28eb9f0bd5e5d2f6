(** Deterministic fault injection for the failsafe layer (DESIGN.md
    section 12).

    A small set of named fault points is threaded through the datapath's
    existing seams (model prediction, engine entry, helper return, wire
    decode, table match, simulated clock).  Each point fires with a
    configured probability, drawn from a seeded {!Kml.Rng} stream, so a
    fault schedule is a pure function of (plan, seed) — the chaos tests
    replay identical fault schedules at any pool width.

    Zero-cost when disabled: every seam guards its injection with a single
    [active ()] flag load (the same discipline as [Obs.enabled]); with no
    plan armed the datapath executes exactly the stock instruction
    sequence.

    Plans come from two sources:
    - the [RKD_FAULTS] environment variable ([point:prob,...] or
      [all:prob]), parsed once at startup into the process-global plan;
    - {!with_plan}, which installs a domain-local plan for the duration of
      a callback.  A domain-local plan shadows the global one, which keeps
      per-scenario fault schedules deterministic when scenarios fan out
      across a domain pool. *)

type point =
  | Model_extreme      (** model prediction replaced by an extreme value *)
  | Model_garbage      (** model prediction replaced by a random value *)
  | Engine_trap        (** interp/jit raises {!Interp.Trap} at entry *)
  | Helper_fail        (** helper result replaced by a random value *)
  | Encoding_bitflip   (** wire image corrupted before decode *)
  | Table_miss         (** table lookup forced to the default action *)
  | Clock_skew         (** simulated clock perturbed by a random offset *)

val all_points : point list
val point_name : point -> string
val point_of_name : string -> point option

val active : unit -> bool
(** One flag load; [false] means no plan is armed anywhere and every seam
    is on its stock path. *)

val fire : point -> bool
(** Draw from the active plan: [true] with the point's configured
    probability.  Always [false] when no plan is armed, when the ambient
    scope is {!without}, or when the point's probability is 0.  Bumps the
    point's injection counter when it fires. *)

val set_global : ?seed:int -> (point * float) list -> unit
(** Install the process-global plan (replacing any previous one).
    Probabilities are clamped to [0, 1]. *)

val clear_global : unit -> unit

val suppress_default : unit -> unit
(** Ignore the global ([RKD_FAULTS]) plan outside explicit {!with_plan}
    scopes.  Test binaries call this once at startup so ambient fault
    injection cannot perturb exact-value assertions; the failsafe suite
    re-arms faults through scoped plans. *)

val with_plan : ?seed:int -> (point * float) list -> (unit -> 'a) -> 'a
(** Run the callback with a domain-local plan shadowing the global one;
    restores the previous scope on exit (exceptions included). *)

val without : (unit -> 'a) -> 'a
(** Run the callback with all injection suppressed in this domain. *)

(** {2 Cross-domain plan threading}

    {!with_plan} scopes are domain-local, so code running on a domain
    spawned {e inside} the scope (a pinned serving worker, say) would
    silently fall back to the global plan.  Workers close the gap by
    taking a {!capture} on the submitting domain and re-installing it
    with {!with_capture} at startup. *)

type capture
(** Snapshot of the calling domain's ambient fault scope: a scoped plan,
    a {!without} suppression, or nothing (fall through to the global
    plan). *)

val capture : unit -> capture

val capture_for : index:int -> capture -> capture
(** Derive worker [index]'s capture: a captured plan keeps its
    probabilities but draws from an independent split of the plan's rng,
    so concurrent workers neither share rng state nor replay each other's
    schedules — worker [i]'s fault schedule is a pure function of
    (plan, seed, [i]).  Suppression and empty captures pass through. *)

val with_capture : capture -> (unit -> 'a) -> 'a
(** Run the callback under the captured scope (no-op for an empty
    capture); restores the previous scope on exit. *)

val injected : point -> int
(** Process-total injections at this point (all plans). *)

val parse_spec : string -> ((point * float) list, string) result
(** Parse an [RKD_FAULTS]-style spec: comma-separated [point:prob] pairs,
    where point is a {!point_name} or [all] and prob is in [\[0, 1\]].
    Empty entries are rejected.  A process whose [RKD_FAULTS] does not
    parse prints the error and exits with status 2 at start-up. *)

val env_plan : (point * float) list
(** The [RKD_FAULTS] plan, parsed once at start-up and armed as the
    global plan; [[]] when the variable is unset or empty. *)

(** {2 Perturbation helpers}

    Value generators for the seams, drawing from the active plan's rng
    (deterministic under a fixed plan).  Callers only invoke these after
    {!fire} returned [true]. *)

val extreme : unit -> int
(** One of the classic pathological model outputs: [min_int], [max_int],
    0, ±1, or a huge power of two. *)

val garbage : unit -> int
(** Uniform random value over the full non-negative draw range, sometimes
    negated. *)

val skew : unit -> int
(** Clock offset in nanoseconds: usually a forward jump (up to 10ms),
    occasionally a small backward step. *)

val corrupt : bytes -> unit
(** Flip 1–4 random bits in place. *)
