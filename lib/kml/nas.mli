(** Cost-bounded neural architecture search (§3.2 "Customized ML").

    A deliberately small NAS: random search over MLP depth/width/training
    hyper-parameters, with candidates whose *static* cost exceeds the model
    budget pruned before training (the verifier would reject them anyway).
    This mirrors the paper's proposal that NAS runs offline and only
    admissible architectures are pushed to the kernel. *)

type candidate = {
  hidden : int list;
  learning_rate : float;
  epochs : int;
  cost : Model_cost.t;
  val_accuracy : float;
}

type result = {
  best : candidate;
  model : Mlp.t;
  explored : candidate list; (** every trained candidate, best first *)
  pruned : int;              (** candidates rejected by the cost budget *)
}

val search :
  rng:Rng.t ->
  budget:Model_cost.budget ->
  train:Dataset.t ->
  validation:Dataset.t ->
  unit ->
  result
(** [search ~rng ~budget ~train ~validation ()] samples 10 architectures
    with 1 or 2 hidden layers of width 4, 8, 16 or 32, trains the ones
    within [budget]
    and returns the best by validation accuracy (ties: cheaper wins).
    Raises [Invalid_argument] if no candidate fits the budget. *)
