(** Model quantization: float MLPs trained in userspace are converted to
    Q16.16 integer models and "pushed to the kernel for inference" (§3.2).

    The quantized model embeds the standardization constants as fixed-point
    values, so kernel-side inference takes raw integer features. *)

module Qmlp : sig
  type t

  val of_mlp : Mlp.t -> t
  val predict : t -> int array -> int
  (** Integer-only forward pass on raw integer features. *)

  val predict_batch : t -> features:int array -> n:int -> out:int array -> unit
  (** Batched [predict]: slot [s]'s features are
      [features.(s * n_features) ..], its class lands in [out.(s)].  One
      weight-row-major sweep per layer over the whole batch, so model
      weights amortize across slots; per slot the result is bit-identical
      to [predict].  Internal batch planes grow geometrically and are
      reused — allocation-free in steady state. *)

  val n_features : t -> int
  val architecture : t -> int list
end
