(** Case study 2 (§4, Table 2): an RMT hook in the scheduler's
    [can_migrate_task] path queries an ML model that mimics the CFS
    migration decision.

    The RMT program loads the load-balancing feature block from the
    execution context and consults the bound model (typically a quantized
    MLP trained offline in userspace) via [CALL_ML].  The {e lean} variant
    loads only the top-k features selected by importance ranking — the
    program reads fewer monitor words per decision, which is the
    lean-monitoring benefit (§2.1 #1) made measurable: compare
    [ctxt_reads / decisions] across variants. *)

type t

val build_program : keep:int array -> Rmt.Program.t
(** The [lb_migrate] program over feature indices [keep]: one vector
    load when they are contiguous, one context read each otherwise. *)

val create : ?keep:int array -> model:Rmt.Model_store.model -> unit -> t
(** [keep] selects which of the {!Ksim.Lb_features} indices the program
    reads (default: all 15, in order).  The model's feature arity must
    equal [Array.length keep]; class 1 = migrate.  Raises
    [Invalid_argument] on arity mismatch or if the program fails
    verification. *)

val decider : t -> Ksim.Cfs.decider
(** Feeds the feature vector into the execution context — including the
    stock CFS heuristic's decision under {!Hooks.key_heuristic} — fires
    the [can_migrate_task] hook and returns the model's decision.  While
    the hook's circuit breaker is open, the decision {e is} the stock
    heuristic's, served by the fallback (DESIGN.md section 12). *)

val update_model : t -> Rmt.Model_store.model -> (unit, string) result
val control : t -> Rmt.Control.t

val breaker : t -> Rmt.Breaker.t
(** The [can_migrate_task] circuit breaker. *)

type stats = {
  decisions : int;
  vm_steps : int;
  model_invocations : int;
  ctxt_reads : int;     (** monitor words read by the RMT program *)
  reads_per_decision : float;
  fallback_decisions : int; (** decisions served by the stock heuristic *)
  breaker_trips : int;      (** times the breaker opened *)
}

val stats : t -> stats
