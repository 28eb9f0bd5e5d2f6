type node =
  | Leaf of { label : int; counts : int array }
  | Split of { feature : int; threshold : int; left : int; right : int }

(* The [nodes] variant array is the training/introspection layout; the
   [s_*] structure-of-arrays mirror is what [predict] walks: a leaf at
   slot [i] has [s_feature.(i) = -1] and its label in [s_label.(i)], so
   inference is a tight integer loop with no constructor matching and no
   allocation.  Both layouts are built once, at [train_rows] exit, and
   [relabel_leaves] shares the split arrays of the tree it relabels. *)
type t = {
  n_features : int;
  n_classes : int;
  nodes : node array;
  s_feature : int array;
  s_threshold : int array;
  s_left : int array;
  s_right : int array;
  s_label : int array;
}

let flatten ~n_features ~n_classes nodes =
  let n = Array.length nodes in
  let s_feature = Array.make n (-1) in
  let s_threshold = Array.make n 0 in
  let s_left = Array.make n 0 in
  let s_right = Array.make n 0 in
  let s_label = Array.make n 0 in
  Array.iteri
    (fun i node ->
      match node with
      | Leaf { label; _ } ->
        s_feature.(i) <- -1;
        s_label.(i) <- label
      | Split { feature; threshold; left; right } ->
        s_feature.(i) <- feature;
        s_threshold.(i) <- threshold;
        s_left.(i) <- left;
        s_right.(i) <- right)
    nodes;
  { n_features; n_classes; nodes; s_feature; s_threshold; s_left; s_right; s_label }

type params = { max_depth : int; min_samples_split : int }

let default_params = { max_depth = 8; min_samples_split = 4 }
let gini_scale = 1 lsl 20

(* A split must gain at least this much Gini, scaled by [gini_scale]. *)
let min_gain = gini_scale / 1024

(* [cost counts n] is [n * gini(counts)] in [gini_scale] units:
   scale * (n^2 - sum c^2) / n.  Using n*gini (not gini) makes split gain a
   simple difference without a second division. *)
let cost counts n =
  if n = 0 then 0
  else begin
    let sum_sq = Array.fold_left (fun acc c -> acc + (c * c)) 0 counts in
    gini_scale * ((n * n) - sum_sq) / n
  end

let majority counts =
  let best = ref 0 in
  for c = 1 to Array.length counts - 1 do
    if counts.(c) > counts.(!best) then best := c
  done;
  !best

(* A presorted entry packs a sample's value rank within its feature, its
   label and its index into one int: [rank lsl rank_shift lor label lsl
   index_bits lor index].  The split sweep then reads one sequential array
   and gathers nothing but the winning threshold, and two entries hold the
   same value exactly when their ranks are equal. *)
let index_bits = 24
let label_bits = 14
let rank_shift = index_bits + label_bits
let index_mask = (1 lsl index_bits) - 1
let label_mask = (1 lsl label_bits) - 1

type workspace = {
  ws_features : int;
  ws_classes : int;
  capacity : int;
  order : int array; (* feature [f]'s entries at [f * n ..], [n] samples *)
  scratch : int array;
  column : int array; (* one feature's values, while it is presorted *)
  starts : int array; (* radix bucket starts *)
  goes_left : Bytes.t;
  sweep_left : int array;
  (* Class counts of the two children of a split at depth [d] are
     [level_counts.(2 * d)] and [.(2 * d + 1)]; only leaves copy theirs. *)
  mutable level_counts : int array array;
  mutable node_buf : node array; (* grows to the largest tree trained *)
}

let no_node = Leaf { label = 0; counts = [||] }

let workspace ~n_features ~n_classes ~capacity =
  if n_features < 1 then invalid_arg "Decision_tree.workspace: n_features must be positive";
  if n_classes < 1 || n_classes > 1 lsl label_bits then
    invalid_arg "Decision_tree.workspace: n_classes must be in [1, 2^14]";
  if capacity < 0 || capacity > 1 lsl index_bits then
    invalid_arg "Decision_tree.workspace: capacity must be in [0, 2^24]";
  { ws_features = n_features;
    ws_classes = n_classes;
    capacity;
    order = Array.make (n_features * capacity) 0;
    scratch = Array.make capacity 0;
    column = Array.make capacity 0;
    starts = Array.make 257 0;
    goes_left = Bytes.create capacity;
    sweep_left = Array.make n_classes 0;
    level_counts = [||];
    node_buf = Array.make 64 no_node }

let children_counts ws depth =
  let i = 2 * depth in
  let have = Array.length ws.level_counts in
  if i >= have then
    ws.level_counts <-
      Array.init ((2 * i) + 2) (fun j ->
          if j < have then ws.level_counts.(j) else Array.make ws.ws_classes 0);
  (ws.level_counts.(i), ws.level_counts.(i + 1))

(* Presorts feature [f] of the [n] rows into [order.(f * n ..)]: a stable
   LSD radix sort of the sample indices, 8 bits a pass, keyed on [value -
   min] read as unsigned, so any int range sorts in ascending value order
   and a column whose span needs [b] bits takes [b / 8] passes rounded up.
   Then each index is packed with its value's rank and its label. *)
let presort ws ~rows ~labels ~n f =
  let nf = ws.ws_features
  and order = ws.order
  and scratch = ws.scratch
  and column = ws.column
  and starts = ws.starts in
  let base = f * n in
  let vmin = ref max_int and vmax = ref min_int in
  for i = 0 to n - 1 do
    let v = rows.((i * nf) + f) in
    column.(i) <- v;
    if v < !vmin then vmin := v;
    if v > !vmax then vmax := v
  done;
  let vmin = !vmin and span = !vmax - !vmin in
  for i = 0 to n - 1 do
    order.(base + i) <- i
  done;
  let shift = ref 0 in
  while n > 0 && !shift < Sys.int_size && span lsr !shift <> 0 do
    Array.fill starts 0 257 0;
    for k = base to base + n - 1 do
      let d = ((column.(order.(k)) - vmin) lsr !shift) land 255 in
      starts.(d + 1) <- starts.(d + 1) + 1
    done;
    for d = 1 to 256 do
      starts.(d) <- starts.(d) + starts.(d - 1)
    done;
    for k = base to base + n - 1 do
      let i = order.(k) in
      let d = ((column.(i) - vmin) lsr !shift) land 255 in
      scratch.(starts.(d)) <- i;
      starts.(d) <- starts.(d) + 1
    done;
    Array.blit scratch 0 order base n;
    shift := !shift + 8
  done;
  let rank = ref 0 and prev = ref vmin in
  for k = base to base + n - 1 do
    let i = order.(k) in
    let v = column.(i) in
    if v <> !prev then begin
      incr rank;
      prev := v
    end;
    order.(k) <- (!rank lsl rank_shift) lor (labels.(i) lsl index_bits) lor i
  done

(* Presorted CART.  Each feature's samples are sorted once, and a node is a
   range [lo, hi) of every feature's order, kept in ascending value order:
   a split stably partitions each range into its left and right parts, so
   nothing below the root is sorted again. *)
let train_rows ws ~params ~rows ~labels ~n =
  let nf = ws.ws_features and n_classes = ws.ws_classes in
  if params.max_depth < 1 then invalid_arg "Decision_tree.train_rows: max_depth must be >= 1";
  if n < 0 || n > ws.capacity then
    invalid_arg "Decision_tree.train_rows: n must be in [0, workspace capacity]";
  if Array.length rows < n * nf || Array.length labels < n then
    invalid_arg "Decision_tree.train_rows: rows or labels shorter than n samples";
  let counts = Array.make n_classes 0 in
  for i = 0 to n - 1 do
    let l = labels.(i) in
    if l < 0 || l >= n_classes then invalid_arg "Decision_tree.train_rows: label out of range";
    counts.(l) <- counts.(l) + 1
  done;
  for f = 0 to nf - 1 do
    presort ws ~rows ~labels ~n f
  done;
  let order = ws.order
  and scratch = ws.scratch
  and goes_left = ws.goes_left
  and sweep_left = ws.sweep_left in
  (* Whether feature [f] takes one value over the node [lo, hi).  Such a
     feature has no boundary to sweep and keeps its value in every
     descendant, so its range is left unpartitioned: any part of a
     one-rank range still has that rank, and nothing else reads it. *)
  let constant f lo hi =
    order.((f * n) + lo) lsr rank_shift = order.((f * n) + hi - 1) lsr rank_shift
  in
  (* Best (gain, feature, threshold, left size) over every feature of the
     node [lo, hi): one ascending sweep per feature with class counts kept
     incrementally, a gain evaluated only where the value changes.  Only a
     strictly greater gain replaces the incumbent, so the lowest threshold
     wins within a feature and the earlier feature across them. *)
  let best_split lo hi counts parent_cost =
    let size = hi - lo in
    let parent_sq = Array.fold_left (fun a c -> a + (c * c)) 0 counts in
    let best_gain = ref 0 and best_f = ref (-1) and best_thr = ref 0 and best_nl = ref 0 in
    for f = 0 to nf - 1 do
      if not (constant f lo hi) then begin
        let base = f * n in
        Array.fill sweep_left 0 n_classes 0;
        (* Incremental sums of squares, so each sweep step is O(1), not
           O(classes); a right-hand count is the node's count less the
           left-hand one.  [k] stays inside the node's range and every
           label was checked against [n_classes] on entry, so the inner
           loop reads without bounds checks. *)
        let left_sq = ref 0 and right_sq = ref parent_sq in
        let next = ref (Array.unsafe_get order (base + lo)) in
        for k = base + lo to base + hi - 2 do
          let e = !next in
          next := Array.unsafe_get order (k + 1);
          let l = (e lsr index_bits) land label_mask in
          let in_left = Array.unsafe_get sweep_left l in
          left_sq := !left_sq + (2 * in_left) + 1;
          right_sq := !right_sq - (2 * (Array.unsafe_get counts l - in_left)) + 1;
          Array.unsafe_set sweep_left l (in_left + 1);
          if e lsr rank_shift <> !next lsr rank_shift then begin
            let nl = k - base - lo + 1 in
            let nr = size - nl in
            let cl = gini_scale * ((nl * nl) - !left_sq) / nl in
            let cr = gini_scale * ((nr * nr) - !right_sq) / nr in
            let gain = parent_cost - cl - cr in
            if gain > !best_gain then begin
              best_gain := gain;
              best_f := f;
              best_thr := rows.(((e land index_mask) * nf) + f);
              best_nl := nl
            end
          end
        done
      end
    done;
    if !best_f < 0 then None else Some (!best_gain, !best_f, !best_thr, !best_nl)
  in
  (* Stable partition of feature [g]'s range [lo, hi) into the samples
     marked in [goes_left], then the rest.  Each entry is written to both
     sides and only the side it belongs to advances, so the loop has no
     data-dependent branch.  [!w <= k], [!r < hi - lo <= n] and a sample
     index is below [n], so the loop writes without bounds checks. *)
  let partition g lo hi =
    let base = g * n in
    let w = ref (base + lo) and r = ref 0 in
    for k = base + lo to base + hi - 1 do
      let e = order.(k) in
      let b = Char.code (Bytes.unsafe_get goes_left (e land index_mask)) in
      Array.unsafe_set order !w e;
      Array.unsafe_set scratch !r e;
      w := !w + b;
      r := !r + 1 - b
    done;
    Array.blit scratch 0 order !w !r
  in
  let is_leaf size counts depth =
    depth >= params.max_depth || size < params.min_samples_split || cost counts size = 0
  in
  let n_nodes = ref 0 in
  (* Nodes are numbered in preorder: a node, its left subtree, its right. *)
  let rec build lo hi counts depth =
    let id = !n_nodes in
    incr n_nodes;
    if id = Array.length ws.node_buf then begin
      let grown = Array.make (2 * id) no_node in
      Array.blit ws.node_buf 0 grown 0 id;
      ws.node_buf <- grown
    end;
    let size = hi - lo in
    let make_leaf () =
      ws.node_buf.(id) <- Leaf { label = majority counts; counts = Array.copy counts }
    in
    if is_leaf size counts depth then make_leaf ()
    else begin
      match best_split lo hi counts (cost counts size) with
      | Some (gain, feature, threshold, nl) when gain >= min_gain ->
        (* The chosen feature's range is already split: its first [nl]
           entries hold exactly the values [<= threshold]. *)
        let mid = lo + nl and base = feature * n in
        let left_counts, right_counts = children_counts ws depth in
        Array.fill left_counts 0 n_classes 0;
        for k = base + lo to base + mid - 1 do
          let l = (order.(k) lsr index_bits) land label_mask in
          left_counts.(l) <- left_counts.(l) + 1
        done;
        for c = 0 to n_classes - 1 do
          right_counts.(c) <- counts.(c) - left_counts.(c)
        done;
        (* Leaves read only their counts, so two leaf children need no
           partition. *)
        if not (is_leaf nl left_counts (depth + 1) && is_leaf (hi - mid) right_counts (depth + 1))
        then begin
          for k = base + lo to base + mid - 1 do
            Bytes.set goes_left (order.(k) land index_mask) '\001'
          done;
          for k = base + mid to base + hi - 1 do
            Bytes.set goes_left (order.(k) land index_mask) '\000'
          done;
          for g = 0 to nf - 1 do
            if g <> feature && not (constant g lo hi) then partition g lo hi
          done
        end;
        let left = build lo mid left_counts (depth + 1) in
        let right = build mid hi right_counts (depth + 1) in
        ws.node_buf.(id) <- Split { feature; threshold; left; right }
      | Some _ | None -> make_leaf ()
    end;
    id
  in
  let root = build 0 n counts 0 in
  assert (root = 0);
  flatten ~n_features:nf ~n_classes (Array.sub ws.node_buf 0 !n_nodes)

(* One copy of the dataset into rows, through a workspace sized for it. *)
let train ?(params = default_params) ds =
  let nf = Dataset.n_features ds and n = Dataset.length ds in
  let rows = Array.make (n * nf) 0 and labels = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = Dataset.get ds i in
    labels.(i) <- s.Dataset.label;
    Array.blit s.Dataset.features 0 rows (i * nf) nf
  done;
  let ws = workspace ~n_features:nf ~n_classes:(Dataset.n_classes ds) ~capacity:n in
  train_rows ws ~params ~rows ~labels ~n

let check_arity t features =
  if Array.length features <> t.n_features then
    invalid_arg "Decision_tree.predict: feature arity mismatch"

(* Allocation-free inference over the structure-of-arrays layout. *)
let[@inline] walk_flat t features =
  let feat = t.s_feature
  and thr = t.s_threshold
  and left = t.s_left
  and right = t.s_right in
  let i = ref 0 in
  let f = ref feat.(0) in
  while !f >= 0 do
    i := (if features.(!f) <= thr.(!i) then left.(!i) else right.(!i));
    f := feat.(!i)
  done;
  !i

let predict t features =
  check_arity t features;
  t.s_label.(walk_flat t features)

(* Batched inference: one walk per slot over the flat layout, reading
   slot [s]'s features at row offset [s * n_features] — no per-slot
   feature copy, no allocation. *)
let predict_batch t ~features ~n ~out =
  let nf = t.n_features in
  if n < 0 || Array.length features < n * nf then
    invalid_arg "Decision_tree.predict_batch: feature buffer too small";
  if Array.length out < n then
    invalid_arg "Decision_tree.predict_batch: output buffer too small";
  let feat = t.s_feature
  and thr = t.s_threshold
  and left = t.s_left
  and right = t.s_right in
  for s = 0 to n - 1 do
    let base = s * nf in
    let i = ref 0 in
    let f = ref feat.(0) in
    while !f >= 0 do
      i := (if features.(base + !f) <= thr.(!i) then left.(!i) else right.(!i));
      f := feat.(!i)
    done;
    out.(s) <- t.s_label.(!i)
  done

let n_nodes t = Array.length t.nodes

let depth t =
  let rec go i =
    match t.nodes.(i) with
    | Leaf _ -> 0
    | Split { left; right; _ } -> 1 + Stdlib.max (go left) (go right)
  in
  go 0

let n_features t = t.n_features
let nodes t = Array.copy t.nodes

(* The split layout is immutable, so the relabelled tree shares it; only
   the node array and the leaf labels are new. *)
let relabel_leaves t f =
  let s_label = Array.copy t.s_label in
  let nodes =
    Array.mapi
      (fun i node ->
        match node with
        | Leaf { label; counts } ->
          let relabelled = f ~label ~counts in
          s_label.(i) <- relabelled;
          if relabelled = label then node else Leaf { label = relabelled; counts }
        | Split _ -> node)
      t.nodes
  in
  { t with nodes; s_label }
