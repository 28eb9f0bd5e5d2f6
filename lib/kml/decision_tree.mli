(** Integer CART decision tree — the paper's in-kernel learning model.

    Training uses only integer feature comparisons and integer-scaled Gini
    impurity, so the same code could run kernel-side without an FPU (§3.2,
    §4 case study 1).  Inference walks internal nodes of the form
    [feature <= threshold]. *)

type t

type params = {
  max_depth : int;       (** maximum tree depth; 1 = a single split *)
  min_samples_split : int; (** do not split nodes smaller than this *)
}

val default_params : params
val gini_scale : int
(** Gini impurities are integers scaled by this factor (2^20). *)

val train : ?params:params -> Dataset.t -> t
(** Copies the dataset into rows once and trains on them with {!train_rows}
    through a workspace sized for it.  An empty dataset yields a tree that
    always predicts class 0.  Raises [Invalid_argument] past the limits of
    {!workspace}. *)

type workspace
(** Every buffer {!train_rows} needs but the nodes of the tree it returns:
    the presorted per-feature orders, the partition scratch, the
    partition marks, the class sweep counts, the children's class counts
    at each depth and a node buffer that grows to the largest tree
    trained.  Reused across calls, so a trainer that
    retrains periodically allocates it once. *)

val workspace : n_features:int -> n_classes:int -> capacity:int -> workspace
(** A workspace for up to [capacity] samples of [n_features] features and
    [n_classes] classes.  A presorted entry packs a value rank and a sample
    index in 24 bits each and a label in 14, so [capacity] must be in
    \[0, 2^24\] and [n_classes] in \[1, 2^14\]; [n_features] must be
    positive.  Raises [Invalid_argument] otherwise, before allocating. *)

val train_rows :
  workspace -> params:params -> rows:int array -> labels:int array -> n:int -> t
(** Trains on the first [n] samples of a caller-owned row-major matrix:
    feature [f] of sample [i] is [rows.(i * n_features + f)] and its class
    is [labels.(i)].  Neither array is modified or kept.  A split must
    gain at least [gini_scale / 1024].  Raises [Invalid_argument] if [n]
    exceeds the workspace's capacity, if either array is shorter than [n]
    samples, or on a label outside \[0, n_classes).

    Presorted CART.  Each feature's sample indices are sorted once by value
    (a stable LSD radix sort on [value - min]) and packed with their value's
    rank and their label.  A node is a range of every feature's order.  Its
    split search sweeps each feature's range in ascending value order,
    keeps class counts incrementally and evaluates the Gini gain only where
    the rank changes.  The split stably partitions every range into the
    left part and the right part, so the children stay sorted and nothing
    is sorted again below the root.  A split whose two children are both
    leaves partitions nothing, and a feature that takes one value over a
    node is neither swept nor partitioned there.  One tree level costs O(n * n_features),
    plus one O(n * n_features) presort per call.

    Tie-break contract, which fixes the tree for a given set of samples and
    [params]: a boundary's gain depends only on the set of samples at or
    below its threshold, so neither the order of equal values nor the order
    of the rows matters.  Thresholds are scanned in ascending order within
    a feature, features in index order, and a candidate replaces the best
    split only if its gain is strictly greater, so the lowest threshold and
    then the earliest feature win ties.  Nodes are numbered in preorder: a
    node, then its left subtree, then its right subtree. *)

val predict : t -> int array -> int
(** Allocation-free inference: walks a structure-of-arrays mirror of the
    tree (int arrays for feature/threshold/children, built once at
    [train] exit), so the hot loop does no constructor
    matching and no allocation.  Raises [Invalid_argument] on
    feature-arity mismatch. *)

val predict_batch : t -> features:int array -> n:int -> out:int array -> unit
(** Batched [predict] over [n] slot-major feature rows: slot [s]'s
    features start at [features.(s * n_features)], its class lands in
    [out.(s)].  One flat-layout walk per slot, no per-slot feature copy,
    no allocation. *)

val n_nodes : t -> int
val depth : t -> int
val n_features : t -> int

type node =
  | Leaf of { label : int; counts : int array }
  | Split of { feature : int; threshold : int; left : int; right : int }
      (** [left]/[right] are node-array indices; samples with
          [features.(feature) <= threshold] go left. *)

val nodes : t -> node array
(** Flattened node array (index 0 is the root) — the representation loaded
    into the RMT model store. *)

val relabel_leaves : t -> (label:int -> counts:int array -> int) -> t
(** The same tree with each leaf's label replaced by [f ~label ~counts]
    (its class counts, which [f] must not modify, are kept).  Splits are
    unchanged and shared with [t], not copied, so this allocates a node
    array and a label array and nothing per split. *)
