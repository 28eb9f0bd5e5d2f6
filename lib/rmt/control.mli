(** Control plane (§3.1 "Updating RMT entries").

    This module simulates the [syscall_rmt] surface: userland produces an
    RMT program (built with {!Builder} or assembled from text), the control
    plane verifies it against the kernel's helper registry and the bound
    models' measured costs, links it, and exposes it to tables and hooks.
    At runtime the same surface supports the paper's reconfiguration loop:
    adding/removing table entries and swapping retrained models in place.
    The execution engine is fixed per control plane at {!create}. *)

type t

val create :
  ?engine:Vm.engine -> ?seed:int -> ?view_ns:string -> unit -> t
(** Fresh kernel-side state: default helper registry, empty model store,
    empty pipeline.  Every program it installs runs on [engine] (default
    [Jit_compiled]).  [seed] drives DP noise and any program randomness.
    [view_ns] (default ["rmt"]) prefixes every registry view this control
    plane registers — [<view_ns>.program.<name>.*] and, through its
    pipeline, [<view_ns>.breaker.<hook>.*] — so several instances (one
    per serving shard) publish disjoint telemetry. *)

val helpers : t -> Helper.t
val models : t -> Model_store.t
val pipeline : t -> Pipeline.t

val set_clock : t -> (unit -> int) -> unit
(** Wire the simulated clock (nanoseconds).  Defaults to a constant 0. *)

(** {2 Models} *)

val register_model : t -> name:string -> Model_store.model -> Model_store.handle
val update_model : t -> name:string -> Model_store.model -> (unit, string) result
(** Swap a retrained model into its slot; programs referencing the slot pick
    it up on their next invocation (no reinstall). *)

(** {2 Programs} *)

val install :
  t -> ?resource_budget:Resource.budget -> ?model_names:string list -> Program.t ->
  (Vm.t, string) result
(** The install syscall: bind model slots (by registered name, in slot
    order), run {!Verifier.check} with the bound models' costs against
    {!Kml.Model_cost.default_budget}, link and
    wrap in a {!Vm}.  The program is registered under its name; reinstalling
    a name replaces it.

    When [resource_budget] is given, the compile-time {!Resource} report
    (worst-case steps, scratch words, table slots) is checked against it and the install is refused with
    a [resource budget rejected] error when any axis exceeds the budget.
    The report of every successfully installed program is retained and
    available through {!resource_report} whether or not a budget was
    supplied. *)

val install_asm : t -> string -> (Vm.t, string) result
(** Assemble ({!Asm.parse} with this control plane's helpers) a program
    that binds no model, then {!install} it. *)

val install_canary :
  t ->
  ?resource_budget:Resource.budget ->
  ?model_names:string list ->
  ?invocations:int ->
  ?max_divergences:int ->
  ?grace:int ->
  Program.t ->
  (Vm.t, string) result
(** Transactional install (DESIGN.md section 12): verify and link exactly
    as {!install}, but when a program of the same name is already running,
    stage the new build as a canary on the incumbent's Vm
    ({!Vm.stage_canary}) instead of replacing it outright — it shadows
    live traffic and is promoted only if it stays within the divergence
    budget.  A first install (no incumbent) is immediate.  The returned
    Vm is the {e incumbent's}; observe the transaction with
    {!canary_status} and abort it with {!rollback_program}. *)

val swap_program : t -> model_names:string list -> Program.t -> (Vm.t, string) result
(** Forced in-place replacement: verify and link as {!install} within
    {!Resource.default_budget}, then splice the result into the incumbent's Vm ({!Vm.swap}) so table
    entries holding direct Vm references serve the new build immediately —
    no canary window, and any in-flight canary or grace slot is dropped.
    This is the restore path for a rollout whose grace window has already
    expired ({!rollback_program} returns [false] there); a fresh name
    falls back to {!install}. *)

val canary_status : t -> string -> [ `Idle | `Canary of int * int | `Grace of int ] option
(** [None] for an unknown program; see {!Vm.canary_status}. *)

val rollback_program : t -> string -> bool
(** Abort an in-flight canary, or undo a promotion whose grace window is
    still open.  [false] when there is nothing to roll back. *)

val find_program : t -> string -> Vm.t option

val resource_report : t -> string -> Resource.t option
(** Compile-time resource report of an installed program (recorded at
    install time); [None] for unknown names. *)

val bind_tail_call : t -> caller:string -> slot:int -> callee:string -> (unit, string) result

(** {2 Tables and hooks} *)

val create_table : t -> name:string -> match_keys:int array -> default:Table.action -> Table.t
val find_table : t -> string -> Table.t option
val attach : t -> hook:string -> Table.t -> unit
val fire_batch : t -> hook:string -> Batch.t -> bool
(** {!Pipeline.fire_batch} on the control plane's clock: run every table
    at [hook] over the whole batch, leaving per-slot results in the batch
    columns.  [false] when nothing is attached. *)

val fire : t -> hook:string -> ctxt:Ctxt.t -> int option
(** One event through {!fire_batch}, as a batch of one over a slot the
    control plane owns; [ctxt] is the slot's context, so the programs
    read and write it in place.  [None] when nothing is attached,
    otherwise the hook's decision (the fallback's on a protected hook
    whose breaker is open or whose program trapped).

    @raise Interp.Trap when a program traps on an unprotected hook.
    Not re-entrant: an action or fallback must not fire a hook of the
    same control plane. *)

val protect :
  t ->
  hook:string ->
  ?breaker:Breaker.t ->
  programs:string list ->
  fallback:(Ctxt.t -> int) ->
  unit ->
  Breaker.t
(** {!Pipeline.protect} with [vms] resolved from installed program names
    (unknown names are skipped): arm [hook] with a circuit breaker that
    serves [fallback] while open. *)

(** {2 Introspection} *)

val program_names : t -> string list
val table_names : t -> string list
val pp : Format.formatter -> t -> unit
