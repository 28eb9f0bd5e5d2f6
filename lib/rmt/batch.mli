(** Structure-of-arrays invocation batch (DESIGN.md section 13).

    A batch carries N execution contexts and per-slot result columns
    through one loaded program: {!Vm.invoke_batch} fills the columns,
    {!Table.lookup_batch} and {!Pipeline.fire_batch} run whole event
    batches through a hook.  The record is deliberately transparent —
    producers write [ctxts] / [n] directly and consumers read the result
    columns without accessor overhead; all columns are preallocated at
    {!create}, so the steady-state batch loop allocates nothing.

    Per-slot failure containment: a trap in slot [k] is recorded in
    [traps.(k)] (normalized {!Interp.trap}, with [results.(k) = 0]) and
    the remaining slots still execute — a batch invocation never raises
    for a fault contained inside one slot. *)

type t = {
  ctxts : Ctxt.t array;  (** slot contexts; [create] fills with fresh ones,
                             callers may also drop in their own *)
  results : int array;   (** per-slot action result (post-guardrail, post-limiter) *)
  steps : int array;     (** per-slot dynamic instruction count *)
  denied : int array;    (** per-slot privacy denials *)
  traps : Interp.trap option array;
      (** [None] = slot completed; [Some] = contained per-slot trap *)
  mutable n : int;       (** live slots, [0 <= n <= capacity] *)
}

val create : capacity:int -> t
(** Fresh batch with [capacity] slots (each with its own empty context)
    and [n = capacity]. *)

val set_n : t -> int -> unit
(** Raises [Invalid_argument] outside [0, capacity]. *)
