(** Feature-importance ranking — the mechanism behind "lean monitoring"
    (§2.1 benefit #1 and case study 2): rank the kernel monitors feeding a
    model, keep the top-k, and forego the rest.

    [permutation] is model-agnostic: it measures the accuracy lost when one
    feature column is shuffled (the scheme used with scikit-learn in the
    paper's case study 2). *)

type ranking = { scores : float array; order : int array }
(** [order] lists feature indices, most important first; ties broken by
    lower index. *)

val permutation : rng:Rng.t -> predict:(int array -> int) -> Dataset.t -> ranking
(** [permutation ~rng ~predict ds] permutes each feature column 3 times
    and scores features by mean accuracy drop. *)

val top_k : ranking -> int -> int array
(** The [k] most important feature indices, in importance order. *)
