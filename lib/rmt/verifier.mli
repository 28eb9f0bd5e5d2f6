(** RMT program verifier (§3.3).

    [check] performs the static admission analysis the paper assigns to the
    in-kernel verifier, in order:

    + {b structure} — code/scratchpad/constant-pool size limits, register
      and slot indices in range, vector operands within the scratchpad;
    + {b control flow} — branch targets strictly forward and inside the
      program; [Rep] bodies properly nested with constant trip counts;
      no path can fall off the end of the code; a worst-case dynamic
      instruction count (every instruction weighted by the product of its
      enclosing loop counts) below the step budget — this is the paper's
      "bounded execution" guarantee;
    + {b dataflow} — every register read is preceded by a write on all
      paths (helper and model calls clobber r1–r5 and define r0, the eBPF
      convention); [Exit] requires a defined r0;
    + {b capabilities} — calling a privacy-charged helper requires a
      declared [Privacy_budget]; hooks that treat the result as a resource
      request additionally require [Guarded] and [Rate_limited]
      (enforced by {!Control} at attach time using {!report});
    + {b ML admission} — with models bound, the total per-invocation model
      cost (weighted by loop multiplicity) must fit
      {!Kml.Model_cost.default_budget}.

    A program accepted by [check] cannot trap in {!Interp} or {!Jit}: all
    arithmetic is total (division by zero yields 0), all memory operands
    were bounds-checked statically, and execution length is bounded. *)

val max_steps : int
(** 1,000,000: the worst-case dynamic instructions a program may take. *)

val max_vmem : int
(** 1024: the largest scratchpad a program may declare, in words.
    Programs are also limited to 4096 instructions, [REP] counts of 4096
    and 2{^20} constant-pool words. *)

type report = {
  worst_case_steps : int;
  ml_cost : Kml.Model_cost.t;  (** loop-weighted total per invocation *)
  uses_privacy : bool;
  model_slots_used : int list;
  helper_ids_used : int list;
  facts : Absint.fact option array;
      (** per-pc interval facts from {!Absint.analyze}; the datapath
          lint reads these (dead stores, unreachable code, dead branch
          arms, redundant guards) *)
}

type violation =
  | Empty_program
  | Code_too_long of int
  | Vmem_too_large of int
  | Const_pool_too_large of int
  | Bad_register of { pc : int; reg : int }
  | Bad_map_slot of { pc : int; slot : int }
  | Bad_model_slot of { pc : int; slot : int }
  | Bad_prog_slot of { pc : int; slot : int }
  | Bad_helper of { pc : int; id : int }
  | Bad_const of { pc : int; id : int }
  | Negative_ctxt_key of { pc : int; key : int }
  | Vmem_out_of_bounds of { pc : int }
  | Backward_jump of { pc : int; target : int }
  | Jump_out_of_range of { pc : int; target : int }
  | Jump_escapes_loop of { pc : int; target : int }
  | Bad_rep of { pc : int; count : int; body_len : int }
  | Falls_off_end of { pc : int }
  | Steps_exceeded of { worst_case : int; allowed : int }
  | Uninitialized_register of { pc : int; reg : int }
  | Missing_privacy_budget of { pc : int; helper : int }
  | Model_arity_mismatch of { pc : int; slot : int; expected : int; got : int }
  | Ml_cost_exceeded of { cost : Kml.Model_cost.t }
  | Ctxt_key_unproven of { pc : int; reg : int }
      (** strict mode: dynamic context key not proven non-negative *)
  | Vmem_index_unproven of { pc : int }
      (** strict mode: [Vec_ld_map] window not proven within the map *)
  | Privacy_flow of { pc : int; reg : int }
      (** context-derived (tainted) data reaches a map/ring sink in a
          program with no [Privacy_budget] — always enforced *)

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

val check :
  ?strict:bool ->
  helpers:Helper.t ->
  model_costs:Kml.Model_cost.t array ->
  Program.t ->
  (report, violation) result
(** [model_costs] gives the cost of the model bound to each model slot
    (same order as [Program.model_arity]); pass measured costs from
    {!Model_store} at load time.

    [strict] (default [false]) additionally requires every dynamic
    context key and vector map window to be statically proven in bounds
    ([Ctxt_key_unproven] / [Vmem_index_unproven]); the default keeps
    those accesses admissible under their (total) runtime guards.
    [Privacy_flow] is enforced regardless of [strict]. *)

val check_structure_only :
  ?strict:bool -> helpers:Helper.t -> Program.t -> (report, violation) result
(** Structure, control-flow and dataflow checks with model slots assumed
    zero-cost — usable before models are bound. *)
