(** Integer linear classifiers — the "Integer SVM" family of Figure 1.

    [Perceptron] is a fully integer online learner (averaged perceptron):
    both training and inference use only integer arithmetic, making it
    suitable for in-kernel *online* training (§3.2).  [Svm] is a linear SVM
    trained in float space by subgradient descent on the hinge loss and
    quantized to Q16.16 for inference. *)

module Perceptron : sig
  type t

  val create : n_features:int -> n_classes:int -> t
  val learn : t -> int array -> int -> unit
  (** One online update with (features, label). *)

  val predict : t -> int array -> int
  val train : rng:Rng.t -> Dataset.t -> t
  (** Batch convenience wrapper: 20 shuffled online passes. *)
end

module Svm : sig
  type t

  val train : rng:Rng.t -> Dataset.t -> t
  (** One-vs-rest linear SVM, 20 epochs.  Binary problems train a single
      separator. *)

  val predict : t -> int array -> int

  val n_features : t -> int
  val n_classes : t -> int
end
