type node =
  | Leaf of { label : int; counts : int array }
  | Split of { feature : int; threshold : int; left : int; right : int }

(* The [nodes] variant array is the training/introspection layout; the
   [s_*] structure-of-arrays mirror is what [predict] walks: a leaf at
   slot [i] has [s_feature.(i) = -1] and its label in [s_label.(i)], so
   inference is a tight integer loop with no constructor matching and no
   allocation.  Both layouts are built once, at [train]/[of_nodes] exit. *)
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

(* Stable LSD radix sort of the sample indices [0, n) by column [f] of the
   feature-major matrix [x], 8 bits a pass, into [order.(f * n ..)].  The key
   is [value - min] read as unsigned, so any int range sorts in ascending
   value order, and a column whose span needs [b] bits takes [b / 8] passes
   rounded up. *)
let presort x ~n f order scratch =
  let base = f * n in
  let vmin = ref max_int and vmax = ref min_int in
  for i = base to base + n - 1 do
    let v = x.(i) in
    if v < !vmin then vmin := v;
    if v > !vmax then vmax := v
  done;
  let vmin = !vmin and span = !vmax - !vmin in
  for i = 0 to n - 1 do
    order.(base + i) <- i
  done;
  let starts = Array.make 257 0 in
  let shift = ref 0 in
  while n > 0 && !shift < Sys.int_size && span lsr !shift <> 0 do
    Array.fill starts 0 257 0;
    for k = base to base + n - 1 do
      let d = ((x.(base + order.(k)) - vmin) lsr !shift) land 255 in
      starts.(d + 1) <- starts.(d + 1) + 1
    done;
    for d = 1 to 256 do
      starts.(d) <- starts.(d) + starts.(d - 1)
    done;
    for k = base to base + n - 1 do
      let i = order.(k) in
      let d = ((x.(base + i) - vmin) lsr !shift) land 255 in
      scratch.(starts.(d)) <- i;
      starts.(d) <- starts.(d) + 1
    done;
    Array.blit scratch 0 order base n;
    shift := !shift + 8
  done

(* Presorted CART.  Each feature's samples are sorted once, and a node is a
   range [lo, hi) of every feature's order, kept in ascending value order:
   a split stably partitions each range into its left and right parts, so
   nothing below the root is sorted again. *)
let train ?(params = default_params) ds =
  let nf = Dataset.n_features ds and n_classes = Dataset.n_classes ds in
  if params.max_depth < 1 then invalid_arg "Decision_tree.train: max_depth must be >= 1";
  let n = Dataset.length ds in
  (* Feature-major copy: feature [f] of sample [i] is [x.(f * n + i)]. *)
  let x = Array.make (nf * n) 0 and y = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = Dataset.get ds i in
    y.(i) <- s.Dataset.label;
    for f = 0 to nf - 1 do
      x.((f * n) + i) <- s.Dataset.features.(f)
    done
  done;
  let order = Array.make (nf * n) 0 and scratch = Array.make n 0 in
  for f = 0 to nf - 1 do
    presort x ~n f order scratch
  done;
  let goes_left = Bytes.create n in
  let sweep_left = Array.make n_classes 0 and sweep_right = Array.make n_classes 0 in
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
      let base = f * n in
      Array.fill sweep_left 0 n_classes 0;
      Array.blit counts 0 sweep_right 0 n_classes;
      (* Incremental sum of squares so each sweep step is O(1), not O(classes). *)
      let left_sq = ref 0 and right_sq = ref parent_sq in
      for k = base + lo to base + hi - 2 do
        let i = order.(k) in
        let l = y.(i) in
        left_sq := !left_sq + (2 * sweep_left.(l)) + 1;
        right_sq := !right_sq - (2 * sweep_right.(l)) + 1;
        sweep_left.(l) <- sweep_left.(l) + 1;
        sweep_right.(l) <- sweep_right.(l) - 1;
        let v = x.(base + i) in
        if v <> x.(base + order.(k + 1)) then begin
          let nl = k - base - lo + 1 in
          let nr = size - nl in
          let cl = gini_scale * ((nl * nl) - !left_sq) / nl in
          let cr = gini_scale * ((nr * nr) - !right_sq) / nr in
          let gain = parent_cost - cl - cr in
          if gain > !best_gain then begin
            best_gain := gain;
            best_f := f;
            best_thr := v;
            best_nl := nl
          end
        end
      done
    done;
    if !best_f < 0 then None else Some (!best_gain, !best_f, !best_thr, !best_nl)
  in
  (* Stable partition of feature [g]'s range [lo, hi) into the samples
     marked in [goes_left], then the rest. *)
  let partition g lo hi =
    let base = g * n in
    let w = ref (base + lo) and r = ref 0 in
    for k = base + lo to base + hi - 1 do
      let i = order.(k) in
      if Bytes.get goes_left i = '\001' then begin
        order.(!w) <- i;
        incr w
      end
      else begin
        scratch.(!r) <- i;
        incr r
      end
    done;
    Array.blit scratch 0 order !w !r
  in
  let assigned = Hashtbl.create 64 and n_nodes = ref 0 in
  (* Nodes are numbered in preorder: a node, its left subtree, its right. *)
  let rec build lo hi counts depth =
    let id = !n_nodes in
    incr n_nodes;
    let size = hi - lo in
    let parent_cost = cost counts size in
    let make_leaf () = Hashtbl.replace assigned id (Leaf { label = majority counts; counts }) in
    if depth >= params.max_depth || size < params.min_samples_split || parent_cost = 0 then
      make_leaf ()
    else begin
      match best_split lo hi counts parent_cost with
      | Some (gain, feature, threshold, nl) when gain >= min_gain ->
        (* The chosen feature's range is already split: its first [nl]
           entries hold exactly the values [<= threshold]. *)
        let mid = lo + nl and base = feature * n in
        let left_counts = Array.make n_classes 0 in
        for k = base + lo to base + mid - 1 do
          let i = order.(k) in
          Bytes.set goes_left i '\001';
          left_counts.(y.(i)) <- left_counts.(y.(i)) + 1
        done;
        for k = base + mid to base + hi - 1 do
          Bytes.set goes_left order.(k) '\000'
        done;
        for g = 0 to nf - 1 do
          if g <> feature then partition g lo hi
        done;
        let right_counts = Array.mapi (fun c total -> total - left_counts.(c)) counts in
        let left = build lo mid left_counts (depth + 1) in
        let right = build mid hi right_counts (depth + 1) in
        Hashtbl.replace assigned id (Split { feature; threshold; left; right })
      | Some _ | None -> make_leaf ()
    end;
    id
  in
  let counts = Array.make n_classes 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) y;
  let root = build 0 n counts 0 in
  assert (root = 0);
  flatten ~n_features:nf ~n_classes (Array.init !n_nodes (Hashtbl.find assigned))

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

let of_nodes ~n_features ~n_classes arr =
  if Array.length arr = 0 then invalid_arg "Decision_tree.of_nodes: empty node array";
  Array.iteri
    (fun i node ->
      match node with
      | Leaf { counts; _ } ->
        if Array.length counts <> n_classes then
          invalid_arg "Decision_tree.of_nodes: leaf counts arity mismatch"
      | Split { feature; left; right; _ } ->
        if feature < 0 || feature >= n_features then
          invalid_arg "Decision_tree.of_nodes: feature index out of range";
        if left <= i || left >= Array.length arr || right <= i || right >= Array.length arr then
          invalid_arg "Decision_tree.of_nodes: child index must be a later node")
    arr;
  flatten ~n_features ~n_classes (Array.copy arr)
