(** Execution engine wrapper: one loaded program, runnable interpreted or
    JIT compiled, with the program's declared policy guards applied to its
    action results.

    Guardrails are applied inside the engines (at [Exit]); the token-bucket
    rate limiter, when declared, is applied here: the action result is
    treated as a resource request for N units and clamped to the grant
    (§3.3 "Performance interference").

    Failure containment (DESIGN.md section 12): every engine runtime error
    is normalized to {!Interp.trap} and contained in the batch slot that
    raised it — no exception escapes {!invoke_batch} for a fault in the
    program itself — and a staged candidate program can shadow the incumbent for a canary
    window before being atomically promoted (or rolled back). *)

type engine = Interpreted | Jit_compiled

type t

val create : ?engine:engine -> Loaded.t -> t
(** Default engine: [Jit_compiled]. *)

val engine : t -> engine

val loaded : t -> Loaded.t

val invoke_batch : t -> Batch.t -> now:(unit -> int) -> unit
(** Run slots [0 .. b.n - 1] of the batch through the program and fill
    the result columns; the only way to run a loaded program (a single
    event is a batch of one).  When the program declares [Rate_limited],
    a slot's [result] is the number of granted units (<= the program's
    request).

    On the JIT engine, a batch of more than one slot whose program has no
    data-dependent control flow or shared mutable state runs through one
    structure-of-arrays kernel ({!Jit.exec_batch}) so instruction
    dispatch and model weights amortize over the batch.  Everything else
    — a batch of one, the interpreter, and every batch under an active
    fault-injection plan, so per-slot seams fire — runs {!invoke_slot}
    per slot.

    Never raises for a program fault: a trap in slot [k] (fuel
    exhaustion, bad vmem access, division trap, injected fault, helper
    failure) is contained to that slot ([traps.(k)] set, columns zeroed)
    and counted in {!traps}; a trap during a post-promotion grace window
    first rolls the promotion back, so the rest of the batch runs the
    incumbent.  Rate-limiter grants, trace events and canary/grace
    staging advance per completed slot in slot order.  Steady-state
    allocation-free on both paths, telemetry on. *)

val invoke_slot : t -> Batch.t -> int -> now:(unit -> int) -> unit
(** Run slot [s] alone: the engine, trap containment into the slot, then
    the slot's epilogue (limiter grant, trace event, canary/grace step).
    The per-slot body of {!invoke_batch}; {!Table.lookup_batch} calls it
    for slots of a batch whose actions differ. *)

(** {2 Transactional install: canary shadowing, promotion, rollback} *)

val stage_canary :
  t -> ?invocations:int -> ?max_divergences:int -> ?grace:int -> Loaded.t -> unit
(** Stage [loaded] as the candidate of a two-slot install.  For the next
    [invocations] (default 64) live invocations the candidate runs in
    shadow on a {!Ctxt.copy} of each context; a shadow run that traps
    disqualifies it immediately, and one that violates its guardrail or
    disagrees with the incumbent's result counts as a divergence.  When
    the window closes the candidate is promoted iff its divergences are
    at most [max_divergences] (default [invocations/4]); the displaced
    incumbent is kept for [grace] (default 256) further invocations so
    {!rollback} — or any trap — can restore it.  Staging again replaces
    any in-flight candidate. *)

val cancel_canary : t -> bool
(** Drop an in-flight candidate without promotion; [false] if none. *)

val canary_status : t -> [ `Idle | `Canary of int * int | `Grace of int ]
(** [`Canary (remaining, divergences)] while shadowing; [`Grace remaining]
    after a promotion while rollback is still possible. *)

val rollback : t -> bool
(** Restore the pre-promotion incumbent while its grace window is open;
    [false] when there is nothing to roll back to. *)

val swap : t -> Loaded.t -> unit
(** Immediate (non-canaried) replacement of the running program; resets
    limiter state and drops any canary or grace slot. *)

val jit_units : t -> int
(** Program units the JIT has compiled for this VM (root plus tail-call
    targets reached); 0 when never compiled. *)

val invocations : t -> int
val total_steps : t -> int
val throttled_units : t -> int
(** Units refused by the rate limiter so far (0 when not rate limited). *)

val traps : t -> int
(** Contained engine faults observed at this VM's boundary. *)

val guardrail_violations : t -> int

val guardrail_degraded : t -> rate:float -> bool
(** The guardrail's recent-window violation rate is [>= rate] (false when
    the program declares none), without boxing a float return
    — the pipeline health monitor calls this once per batch on the
    serving hot path (see {!Guardrail.violation_rate_ge}). *)
