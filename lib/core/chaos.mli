(** Chaos soak harness for the failsafe datapath (DESIGN.md section 12).

    Each scenario is a pure function of (master seed, scenario index): a
    seeded fault plan is armed through the domain-local scope of
    {!Rmt.Fault.with_plan}, a fresh control plane is driven for a few
    hundred events (three flavors in rotation — the prefetch pipeline,
    the scheduler migration hook, and control-plane canary churn), and a
    fault-free recovery phase then checks that the circuit breaker
    re-closes.  Nothing escapes a scenario but its report, so running the
    batch on pools of different widths must produce bit-identical
    digests — that invariant is what the chaos soak test asserts. *)

type scenario_report = {
  index : int;
  flavor : string;
  digest : int; (* accumulated fold of every datapath decision observed *)
  events : int;
  fallbacks : int; (* events served by the stock-heuristic fallback *)
  breaker_opens : int;
  uncaught : int; (* exceptions that escaped the datapath; must be 0 *)
  reclosed : bool; (* breaker back to Closed once faults stopped *)
}

type summary = {
  scenarios : int;
  total_events : int;
  total_fallbacks : int;
  total_breaker_opens : int;
  total_uncaught : int;
  not_reclosed : int;
  digest : int; (* order-independent combination of scenario digests *)
}

val run :
  ?seed:int ->
  ?events:int ->
  scenarios:int ->
  unit ->
  summary * scenario_report array
(** Run [scenarios] seeded fault scenarios of [events] (default 200)
    faulted events each, fanned out over the global pool ({!Par.global}).  A
    healthy datapath yields [total_uncaught = 0] and [not_reclosed = 0],
    and the same [seed] yields the same [digest] at any pool width. *)

val pp_summary : Format.formatter -> summary -> unit

val build_simple : bias:int -> Rmt.Program.t
(** The control-plane churn scenarios' [chaos_prog]: the faulting page
    plus [bias], modulo 1024. *)
