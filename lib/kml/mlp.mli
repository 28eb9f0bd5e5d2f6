(** Multilayer perceptron, trained in float space ("userspace" in the
    paper's deployment model, §3.2): ReLU hidden layers, softmax output,
    minibatch SGD with momentum on cross-entropy loss.

    Inputs are standardized (per-feature mean/std computed on the training
    set); the normalization constants are part of the model and are carried
    through quantization. *)

type layer = { fan_in : int; fan_out : int; weights : float array; bias : float array }
(** [weights] is row-major (fan_out × fan_in): output [i]'s weight on
    input [j] is [weights.(i * fan_in + j)]. *)

type t

type params = {
  hidden : int list;   (** hidden-layer widths, e.g. [[16; 16]] *)
  epochs : int;
  learning_rate : float;
}

val default_params : params

val train : ?params:params -> rng:Rng.t -> Dataset.t -> t
(** Minibatches of 32, momentum 0.9 and weight decay 1e-4, over flat
    scratch arrays allocated once per call.  Raises [Invalid_argument] on
    an empty dataset. *)

val predict : t -> int array -> int
val predict_probs : t -> int array -> float array

val layers : t -> layer list
val n_features : t -> int
val n_classes : t -> int
val feature_mean : t -> float array
val feature_std : t -> float array
val n_parameters : t -> int
val architecture : t -> int list
(** Layer widths input → output, e.g. [[15; 16; 16; 2]]. *)
