(** Case study 1 (§4, Table 1): ML-driven page prefetching on the RMT
    virtual machine.

    Two match/action tables are installed, exactly as in the paper's
    Figure 1 sketch:

    - a {e data-collection} table at the [lookup_swap_cache] hook whose
      action (RMT bytecode) maintains a per-process feature block in the
      execution context: the recent page-access delta history plus two
      page-offset features;
    - a {e prediction} table at the [swap_cluster_readahead] hook whose
      action loads the feature block with [RMT_VECTOR_LD] and consults an
      in-kernel integer decision tree via [CALL_ML], returning a quantized
      delta class.

    Per-process table entries are inserted through the control-plane API
    the first time a process is seen.  An online trainer accumulates
    (history → next delta) samples in a sliding window and periodically
    retrains the tree in the background, swapping it into the model store
    (the paper: "trains a new decision tree periodically in the background
    for each time window, while discarding the old ones").  An accuracy
    monitor scales the prefetch depth down when recent predictions go
    stale and back up when they recover (§3.1 "Updating RMT entries"). *)

type params = {
  history : int;            (** delta-history length K (feature arity = K + 3) *)
  window_capacity : int;    (** online training window (samples) *)
  retrain_period : int;     (** accesses between background retrains *)
}

val default_params : params
(** Fixed for every instance: 32 delta classes (class 0 = "no prefetch"),
    a roll-forward depth of 8 with accuracy-triggered depth scaling, a
    depth-12 tree, a 400,000 pages/s prefetch rate limit, and leaves
    under 70% majority demoted to "no prefetch" (conservative
    prefetching, §3.1). *)

type t

val create : ?params:params -> ?engine:Rmt.Vm.engine -> ?seed:int -> unit -> t

val prefetcher : t -> Ksim.Prefetcher.t
(** The {!Ksim.Mem_sim}-compatible interface.  [reset] clears per-process
    state, the training window and the model. *)

val control : t -> Rmt.Control.t
(** The underlying control plane (for inspection and tests). *)

val set_online : t -> bool -> unit
(** Enable/disable background retraining at runtime (freezing the current
    model) — the control the adaptivity ablation toggles.  [reset]
    re-enables it. *)

type stats = {
  accesses : int;
  retrains : int;
  training_samples : int;
  model_invocations : int;   (** CALL_ML executions (incl. roll-forward) *)
  vm_invocations : int;      (** RMT program runs across both tables *)
  vm_steps : int;            (** dynamic bytecode instructions executed *)
  predictions_checked : int; (** one-step-ahead predictions scored *)
  predictions_correct : int;
  current_depth : int;
  throttled_pages : int;     (** prefetches refused by the rate limiter *)
  ctxt_reads : int;          (** monitor-word reads (lean-monitoring metric) *)
  fallback_accesses : int;   (** accesses served by stock readahead instead *)
  breaker_trips : int;       (** times the shared circuit breaker opened *)
}

val stats : t -> stats
val tree : t -> Kml.Decision_tree.t option
(** The current model, once at least one retrain has happened. *)

val breaker : t -> Rmt.Breaker.t
(** The circuit breaker shared by both prefetch hooks (DESIGN.md
    section 12): while it is open, every access is served by the stock
    kernel readahead heuristic and the learned path's per-process state
    is dropped for a clean restart on recovery. *)

(** {2 Program builders}

    Exposed for the VM-overhead benchmarks and tests: the exact bytecode
    the case study installs. *)

val build_collect_program : params -> Rmt.Program.t
val build_predict_program : params -> Rmt.Program.t
