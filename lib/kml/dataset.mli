(** Labelled datasets for classification.

    Features are integer-valued (kernel monitoring data is integral: page
    deltas, load counters, run lengths); training in float space converts on
    the fly.  Labels are small non-negative class indices. *)

type sample = { features : int array; label : int }
type t

val create : n_features:int -> n_classes:int -> t
val of_samples : n_features:int -> n_classes:int -> sample list -> t
val add : t -> sample -> unit
(** Appends a sample. Raises [Invalid_argument] on feature-arity or label
    range mismatch. *)

val length : t -> int
val n_features : t -> int
val n_classes : t -> int
val get : t -> int -> sample
val iter : (sample -> unit) -> t -> unit
val fold : ('a -> sample -> 'a) -> 'a -> t -> 'a
val to_array : t -> sample array
(** A fresh array sharing the sample records. *)

val class_counts : t -> int array

val split : t -> rng:Rng.t -> train_fraction:float -> t * t
(** Shuffled split into (train, test). *)

val project : t -> keep:int array -> t
(** Keep only the feature columns listed in [keep] (in that order). *)

val pp_summary : Format.formatter -> t -> unit
