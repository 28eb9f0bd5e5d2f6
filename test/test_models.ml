(* Tests for the learning models: decision tree, MLP, quantization, linear
   classifiers, feature ranking, distillation, NAS, model cost. *)
open Kml

(* Synthetic dataset: label = 1 iff f0 + 2*f1 > threshold, with f2 as pure
   noise — linearly separable, learnable by everything. *)
let linear_dataset ~rng ~n =
  let ds = Dataset.create ~n_features:3 ~n_classes:2 in
  for _ = 1 to n do
    let f0 = Rng.int rng 20 and f1 = Rng.int rng 20 and f2 = Rng.int rng 20 in
    let label = if f0 + (2 * f1) > 28 then 1 else 0 in
    Dataset.add ds { Dataset.features = [| f0; f1; f2 |]; label }
  done;
  ds

(* XOR-style dataset: not linearly separable; trees and MLPs should get it,
   linear models should not. *)
let xor_dataset ~rng ~n =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  for _ = 1 to n do
    let f0 = Rng.int rng 10 and f1 = Rng.int rng 10 in
    let label = if (f0 >= 5) <> (f1 >= 5) then 1 else 0 in
    Dataset.add ds { Dataset.features = [| f0; f1 |]; label }
  done;
  ds

(* ---------------- Decision tree ---------------- *)

let test_tree_learns_linear () =
  let rng = Rng.create 11 in
  let train = linear_dataset ~rng ~n:500 and test = linear_dataset ~rng ~n:200 in
  let tree = Decision_tree.train train in
  let acc = Metrics.accuracy_of ~predict:(Decision_tree.predict tree) test in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.9" acc) true (acc > 0.9)

let test_tree_learns_xor () =
  let rng = Rng.create 13 in
  let train = xor_dataset ~rng ~n:600 and test = xor_dataset ~rng ~n:200 in
  let tree = Decision_tree.train train in
  let acc = Metrics.accuracy_of ~predict:(Decision_tree.predict tree) test in
  Alcotest.(check bool) (Printf.sprintf "xor accuracy %.3f > 0.95" acc) true (acc > 0.95)

let test_tree_empty_dataset () =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  let tree = Decision_tree.train ds in
  Alcotest.(check int) "predicts class 0" 0 (Decision_tree.predict tree [| 1; 2 |]);
  Alcotest.(check int) "single node" 1 (Decision_tree.n_nodes tree)

let test_tree_pure_dataset () =
  let ds = Dataset.create ~n_features:1 ~n_classes:2 in
  for i = 0 to 9 do
    Dataset.add ds { Dataset.features = [| i |]; label = 1 }
  done;
  let tree = Decision_tree.train ds in
  Alcotest.(check int) "no split on pure node" 1 (Decision_tree.n_nodes tree);
  Alcotest.(check int) "predicts the one class" 1 (Decision_tree.predict tree [| 5 |])

let test_tree_depth_limit () =
  let rng = Rng.create 17 in
  let ds = xor_dataset ~rng ~n:400 in
  let params = { Decision_tree.default_params with max_depth = 1 } in
  let tree = Decision_tree.train ~params ds in
  Alcotest.(check bool) "depth <= 1" true (Decision_tree.depth tree <= 1)

let test_tree_arity_check () =
  let rng = Rng.create 19 in
  let tree = Decision_tree.train (linear_dataset ~rng ~n:50) in
  Alcotest.check_raises "arity" (Invalid_argument "Decision_tree.predict: feature arity mismatch")
    (fun () -> ignore (Decision_tree.predict tree [| 1 |]))

let test_tree_relabel_leaves () =
  let rng = Rng.create 23 in
  let ds = linear_dataset ~rng ~n:300 in
  let tree = Decision_tree.train ds in
  let same = Decision_tree.relabel_leaves tree (fun ~label ~counts:_ -> label) in
  Alcotest.(check bool) "identity keeps every node" true
    (Decision_tree.nodes same = Decision_tree.nodes tree);
  let flipped = Decision_tree.relabel_leaves tree (fun ~label ~counts:_ -> 1 - label) in
  Alcotest.(check bool) "splits and counts kept, leaf labels flipped" true
    (Array.for_all2
       (fun a b ->
         match (a, b) with
         | Decision_tree.Leaf { label; counts }, Decision_tree.Leaf l ->
           l.label = 1 - label && l.counts = counts
         | Decision_tree.Split _, Decision_tree.Split _ -> a = b
         | _ -> false)
       (Decision_tree.nodes tree) (Decision_tree.nodes flipped));
  Dataset.iter
    (fun s ->
      Alcotest.(check int) "flipped prediction" (1 - Decision_tree.predict tree s.Dataset.features)
        (Decision_tree.predict flipped s.Dataset.features))
    ds

let prop_tree_predict_total =
  QCheck2.Test.make ~name:"tree predicts a valid class on any input" ~count:200
    QCheck2.Gen.(array_size (return 3) (int_range (-1000) 1000))
    (fun features ->
      let rng = Rng.create 31 in
      let tree = Decision_tree.train (linear_dataset ~rng ~n:200) in
      let c = Decision_tree.predict tree features in
      c = 0 || c = 1)

(* Reference CART: the sort-per-node split search [Decision_tree.train]
   used before presorting.  Every node copies and sorts its indices once
   per feature, sweeps the boundaries between distinct values, and splits
   the indices by filtering.  [train] must build the same node array. *)
module Oracle_tree = struct
  let scale = Decision_tree.gini_scale

  let cost counts n =
    if n = 0 then 0
    else scale * ((n * n) - Array.fold_left (fun a c -> a + (c * c)) 0 counts) / n

  let majority counts =
    let best = ref 0 in
    for c = 1 to Array.length counts - 1 do
      if counts.(c) > counts.(!best) then best := c
    done;
    !best

  let feat samples i f = samples.(i).Dataset.features.(f)

  let best_split_on_feature samples indices f n_classes parent_cost =
    let n = Array.length indices in
    let sorted = Array.copy indices in
    Array.sort (fun a b -> compare (feat samples a f) (feat samples b f)) sorted;
    let left = Array.make n_classes 0 and right = Array.make n_classes 0 in
    Array.iter (fun i -> let l = samples.(i).Dataset.label in right.(l) <- right.(l) + 1) sorted;
    let best = ref None and best_gain = ref 0 in
    for k = 0 to n - 2 do
      let l = samples.(sorted.(k)).Dataset.label in
      left.(l) <- left.(l) + 1;
      right.(l) <- right.(l) - 1;
      let v = feat samples sorted.(k) f in
      if v <> feat samples sorted.(k + 1) f then begin
        let gain = parent_cost - cost left (k + 1) - cost right (n - k - 1) in
        if gain > !best_gain then begin
          best_gain := gain;
          best := Some (gain, v)
        end
      end
    done;
    !best

  let train (params : Decision_tree.params) ds =
    let n_features = Dataset.n_features ds and n_classes = Dataset.n_classes ds in
    let samples = Dataset.to_array ds in
    let assigned = Hashtbl.create 64 and n_nodes = ref 0 in
    let label i = samples.(i).Dataset.label in
    let rec build indices depth =
      let id = !n_nodes in
      incr n_nodes;
      let counts = Array.make n_classes 0 in
      Array.iter (fun i -> counts.(label i) <- counts.(label i) + 1) indices;
      let n = Array.length indices in
      let parent_cost = cost counts n in
      let leaf () =
        Hashtbl.replace assigned id (Decision_tree.Leaf { label = majority counts; counts })
      in
      (if depth >= params.max_depth || n < params.min_samples_split || parent_cost = 0 then leaf ()
       else begin
         let best = ref None in
         for f = 0 to n_features - 1 do
           match (best_split_on_feature samples indices f n_classes parent_cost, !best) with
           | Some (gain, thr), Some (g, _, _) when gain > g -> best := Some (gain, f, thr)
           | Some (gain, thr), None -> best := Some (gain, f, thr)
           | _ -> ()
         done;
         match !best with
         | Some (gain, feature, threshold) when gain >= Decision_tree.gini_scale / 1024 ->
           let side p = Array.of_list (List.filter p (Array.to_list indices)) in
           let left_idx = side (fun i -> feat samples i feature <= threshold) in
           let right_idx = side (fun i -> feat samples i feature > threshold) in
           let left = build left_idx (depth + 1) in
           let right = build right_idx (depth + 1) in
           Hashtbl.replace assigned id (Decision_tree.Split { feature; threshold; left; right })
         | _ -> leaf ()
       end);
      id
    in
    ignore (build (Array.init (Array.length samples) Fun.id) 0 : int);
    Array.init !n_nodes (Hashtbl.find assigned)
end

(* Datasets with heavy ties (values drawn from 1..4 distinct values),
   wide ones (up to 200 values, negatives included), spans of several
   radix digits and the int extremes; 0, 1 or up to 400 samples, and
   random stopping parameters. *)
let tree_case_gen =
  let open QCheck2.Gen in
  let* n_features = int_range 1 6 and* n_classes = int_range 2 6 in
  let* value =
    let span max_width =
      let+ width = int_range 1 max_width and+ low = int_range (-100) 100 in
      int_range low (low + width - 1)
    in
    oneof
      [ span 4;
        span 200;
        return (int_range (-70_000) 70_000);
        return (oneofl [ min_int; -1; 0; max_int ]) ]
  in
  let* n = oneof [ return 0; return 1; int_range 0 400 ] in
  let* rows =
    list_repeat n (pair (array_repeat n_features value) (int_range 0 (n_classes - 1)))
  in
  let+ max_depth = int_range 1 12 and+ min_samples_split = int_range 1 5 in
  let ds =
    Dataset.of_samples ~n_features ~n_classes
      (List.map (fun (features, label) -> { Dataset.features; label }) rows)
  in
  ({ Decision_tree.max_depth; min_samples_split }, ds)

let print_tree_case ((p : Decision_tree.params), ds) =
  let rows =
    Dataset.fold
      (fun acc s ->
        Printf.sprintf "%s->%d"
          (String.concat "," (Array.to_list (Array.map string_of_int s.Dataset.features)))
          s.Dataset.label
        :: acc)
      [] ds
  in
  Printf.sprintf "max_depth=%d min_samples_split=%d classes=%d rows=[%s]" p.max_depth
    p.min_samples_split (Dataset.n_classes ds)
    (String.concat "; " (List.rev rows))

let prop_tree_matches_oracle =
  QCheck2.Test.make ~name:"presorted train = sort-per-node oracle" ~count:1000
    ~print:print_tree_case tree_case_gen (fun (params, ds) ->
      Decision_tree.nodes (Decision_tree.train ~params ds) = Oracle_tree.train params ds)

(* A dataset as [train_rows] takes it: a row-major matrix and its labels. *)
let rows_of ds =
  let nf = Dataset.n_features ds in
  let samples = Dataset.to_array ds in
  let rows = Array.make (Array.length samples * nf) 0 in
  Array.iteri (fun i s -> Array.blit s.Dataset.features 0 rows (i * nf) nf) samples;
  (rows, Array.map (fun s -> s.Dataset.label) samples)

(* One workspace per feature and class count, each reused by every case of
   that shape.  Before each case it trains on a full-capacity case of its
   own, so every case runs after a larger one left its state behind. *)
let prop_tree_rows_match_oracle =
  let spaces = Hashtbl.create 32 in
  let space nf nc =
    match Hashtbl.find_opt spaces (nf, nc) with
    | Some s -> s
    | None ->
      let rng = Rng.create ((nf * 8) + nc) in
      let rows = Array.init (400 * nf) (fun _ -> Rng.int rng 50 - 25) in
      let labels = Array.init 400 (fun _ -> Rng.int rng nc) in
      let s = (Decision_tree.workspace ~n_features:nf ~n_classes:nc ~capacity:400, rows, labels) in
      Hashtbl.replace spaces (nf, nc) s;
      s
  in
  QCheck2.Test.make ~name:"train_rows on a reused workspace = oracle" ~count:1000
    ~print:print_tree_case tree_case_gen (fun (params, ds) ->
      let ws, big_rows, big_labels = space (Dataset.n_features ds) (Dataset.n_classes ds) in
      let big =
        Decision_tree.train_rows ws ~params:Decision_tree.default_params ~rows:big_rows
          ~labels:big_labels ~n:400
      in
      let rows, labels = rows_of ds in
      let tree = Decision_tree.train_rows ws ~params ~rows ~labels ~n:(Dataset.length ds) in
      Decision_tree.n_nodes big > 1 && Decision_tree.nodes tree = Oracle_tree.train params ds)

(* The tie-break contract: the tree depends on the set of samples, not on
   their order, which lets a trainer train on a ring buffer in physical
   row order. *)
let prop_tree_order_independent =
  QCheck2.Test.make ~name:"train is independent of sample order" ~count:500
    ~print:(fun (case, seed) -> Printf.sprintf "%s seed=%d" (print_tree_case case) seed)
    QCheck2.Gen.(pair tree_case_gen int)
    (fun ((params, ds), seed) ->
      let samples = Dataset.to_array ds in
      Rng.shuffle (Rng.create seed) samples;
      let shuffled =
        Dataset.of_samples ~n_features:(Dataset.n_features ds) ~n_classes:(Dataset.n_classes ds)
          (Array.to_list samples)
      in
      Decision_tree.nodes (Decision_tree.train ~params shuffled)
      = Decision_tree.nodes (Decision_tree.train ~params ds))

(* A presorted entry packs a rank and an index in 24 bits each and a label
   in 14; a workspace past that is refused before anything is allocated. *)
let test_tree_workspace_limits () =
  let refuses name ~n_classes ~capacity =
    Alcotest.check_raises name (Invalid_argument name) (fun () ->
        ignore (Decision_tree.workspace ~n_features:4 ~n_classes ~capacity))
  in
  refuses "Decision_tree.workspace: capacity must be in [0, 2^24]" ~n_classes:2
    ~capacity:((1 lsl 24) + 1);
  refuses "Decision_tree.workspace: n_classes must be in [1, 2^14]" ~n_classes:((1 lsl 14) + 1)
    ~capacity:8;
  let ws = Decision_tree.workspace ~n_features:1 ~n_classes:2 ~capacity:2 in
  Alcotest.check_raises "label"
    (Invalid_argument "Decision_tree.train_rows: label out of range") (fun () ->
      ignore
        (Decision_tree.train_rows ws ~params:Decision_tree.default_params ~rows:[| 1; 2 |]
           ~labels:[| 0; 2 |] ~n:2));
  Alcotest.check_raises "capacity"
    (Invalid_argument "Decision_tree.train_rows: n must be in [0, workspace capacity]")
    (fun () ->
      ignore
        (Decision_tree.train_rows ws ~params:Decision_tree.default_params
           ~rows:[| 1; 2; 3 |] ~labels:[| 0; 1; 0 |] ~n:3))

(* ---------------- MLP ---------------- *)

let test_mlp_learns_linear () =
  let rng = Rng.create 37 in
  let train = linear_dataset ~rng ~n:600 and test = linear_dataset ~rng ~n:200 in
  let mlp = Mlp.train ~rng (linear_dataset ~rng ~n:0 |> fun _ -> train) in
  let acc = Metrics.accuracy_of ~predict:(Mlp.predict mlp) test in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.93" acc) true (acc > 0.93)

let test_mlp_learns_xor () =
  let rng = Rng.create 41 in
  let train = xor_dataset ~rng ~n:800 and test = xor_dataset ~rng ~n:300 in
  let params = { Mlp.default_params with epochs = 60; hidden = [ 16 ] } in
  let mlp = Mlp.train ~params ~rng train in
  let acc = Metrics.accuracy_of ~predict:(Mlp.predict mlp) test in
  Alcotest.(check bool) (Printf.sprintf "xor accuracy %.3f > 0.9" acc) true (acc > 0.9)

let test_mlp_probs_sum_to_one () =
  let rng = Rng.create 43 in
  let mlp = Mlp.train ~rng (linear_dataset ~rng ~n:200) in
  let probs = Mlp.predict_probs mlp [| 3; 4; 5 |] in
  let total = Array.fold_left ( +. ) 0.0 probs in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total;
  Array.iter (fun p -> Alcotest.(check bool) "p >= 0" true (p >= 0.0)) probs

let test_mlp_architecture () =
  let rng = Rng.create 47 in
  let params = { Mlp.default_params with hidden = [ 8; 4 ]; epochs = 1 } in
  let mlp = Mlp.train ~params ~rng (linear_dataset ~rng ~n:50) in
  Alcotest.(check (list int)) "widths" [ 3; 8; 4; 2 ] (Mlp.architecture mlp);
  Alcotest.(check int) "params" ((3 * 8) + 8 + (8 * 4) + 4 + (4 * 2) + 2) (Mlp.n_parameters mlp)

let test_mlp_empty_dataset () =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  Alcotest.check_raises "empty" (Invalid_argument "Mlp.train: empty dataset") (fun () ->
      ignore (Mlp.train ~rng:(Rng.create 1) ds))

(* The bit-identity oracle for [Mlp.train]: the trainer [Mlp] used
   before it trained over flat arrays, with its bounds-checked [Vec]/[Mat]
   helpers and every float operation in its original order. *)
module Oracle_mlp = struct
  module Vec = struct
    let create n = Array.make n 0.0
    let dim = Array.length

    let axpy ~alpha ~x ~y =
      if Array.length x <> Array.length y then invalid_arg "Vec.axpy: dimension mismatch";
      for i = 0 to Array.length x - 1 do
        y.(i) <- y.(i) +. (alpha *. x.(i))
      done

    let map = Array.map
  end

  module Mat = struct
    type t = { rows : int; cols : int; data : float array }

    let create ~rows ~cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

    let init ~rows ~cols f =
      let m = create ~rows ~cols in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          m.data.((i * cols) + j) <- f i j
        done
      done;
      m

    let get m i j =
      if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.get: out of bounds";
      m.data.((i * m.cols) + j)

    let set m i j v =
      if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.set: out of bounds";
      m.data.((i * m.cols) + j) <- v

    let mul_vec m x =
      let out = Array.make m.rows 0.0 in
      for i = 0 to m.rows - 1 do
        let acc = ref 0.0 in
        for j = 0 to m.cols - 1 do
          acc := !acc +. (m.data.((i * m.cols) + j) *. x.(j))
        done;
        out.(i) <- !acc
      done;
      out

    let tmul_vec m x =
      let out = Array.make m.cols 0.0 in
      for i = 0 to m.rows - 1 do
        let xi = x.(i) in
        for j = 0 to m.cols - 1 do
          out.(j) <- out.(j) +. (m.data.((i * m.cols) + j) *. xi)
        done
      done;
      out
  end

  type layer = { weights : Mat.t; bias : float array }

  let normalize_with ~mean ~std features =
    Array.init (Array.length features) (fun j ->
        (float_of_int features.(j) -. mean.(j)) /. std.(j))

  let forward_full layers input =
    let n = List.length layers in
    let activations = Array.make (n + 1) input in
    List.iteri
      (fun i { weights; bias } ->
        let z = Mat.mul_vec weights activations.(i) in
        Vec.axpy ~alpha:1.0 ~x:bias ~y:z;
        let a = if i = n - 1 then z else Vec.map (fun x -> Float.max 0.0 x) z in
        activations.(i + 1) <- a)
      layers;
    (activations, activations.(n))

  let softmax z =
    let m = Array.fold_left Float.max neg_infinity z in
    let e = Array.map (fun x -> exp (x -. m)) z in
    let s = Array.fold_left ( +. ) 0.0 e in
    Array.map (fun x -> x /. s) e

  let predict_probs (layers, mean, std) features =
    softmax (snd (forward_full layers (normalize_with ~mean ~std features)))

  (* Returns the layers with the feature mean and std. *)
  let train (params : Mlp.params) ~rng ds =
    let nf = Dataset.n_features ds and nc = Dataset.n_classes ds in
    let n = Dataset.length ds in
    let mean = Vec.create nf and var = Vec.create nf in
    Dataset.iter
      (fun s ->
        for j = 0 to nf - 1 do
          mean.(j) <- mean.(j) +. float_of_int s.Dataset.features.(j)
        done)
      ds;
    for j = 0 to nf - 1 do
      mean.(j) <- mean.(j) /. float_of_int (Stdlib.max 1 n)
    done;
    Dataset.iter
      (fun s ->
        for j = 0 to nf - 1 do
          let d = float_of_int s.Dataset.features.(j) -. mean.(j) in
          var.(j) <- var.(j) +. (d *. d)
        done)
      ds;
    let std =
      Array.init nf (fun j ->
          let v = var.(j) /. float_of_int (Stdlib.max 1 n) in
          if v < 1e-12 then 1.0 else sqrt v)
    in
    let glorot_init ~fan_in ~fan_out =
      let limit = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
      Mat.init ~rows:fan_out ~cols:fan_in (fun _ _ -> Rng.float rng (2.0 *. limit) -. limit)
    in
    let rec make_layers = function
      | fan_in :: (fan_out :: _ as rest) ->
        { weights = glorot_init ~fan_in ~fan_out; bias = Vec.create fan_out }
        :: make_layers rest
      | [ _ ] | [] -> []
    in
    let layer_arr = Array.of_list (make_layers ((nf :: params.hidden) @ [ nc ])) in
    let vel_arr =
      Array.map
        (fun { weights; bias } ->
          (Mat.create ~rows:weights.rows ~cols:weights.cols, Vec.create (Vec.dim bias)))
        layer_arr
    in
    let samples = Dataset.to_array ds in
    let inputs = Array.map (fun s -> normalize_with ~mean ~std s.Dataset.features) samples in
    let order = Array.init (Array.length samples) Fun.id in
    let n_layers = Array.length layer_arr in
    for _epoch = 1 to params.epochs do
      Rng.shuffle rng order;
      let batch_start = ref 0 in
      while !batch_start < Array.length order do
        let batch_end = Stdlib.min (Array.length order) (!batch_start + 32) in
        let batch_n = float_of_int (batch_end - !batch_start) in
        let grad_w =
          Array.map (fun l -> Mat.create ~rows:l.weights.rows ~cols:l.weights.cols) layer_arr
        in
        let grad_b = Array.map (fun l -> Vec.create (Vec.dim l.bias)) layer_arr in
        for k = !batch_start to batch_end - 1 do
          let idx = order.(k) in
          let x = inputs.(idx) and label = samples.(idx).Dataset.label in
          let activations, z = forward_full (Array.to_list layer_arr) x in
          let probs = softmax z in
          let delta = ref (Array.mapi (fun c p -> p -. if c = label then 1.0 else 0.0) probs) in
          for li = n_layers - 1 downto 0 do
            let a_prev = activations.(li) in
            let d = !delta in
            let gw = grad_w.(li) and gb = grad_b.(li) in
            for i = 0 to Vec.dim d - 1 do
              gb.(i) <- gb.(i) +. d.(i);
              for j = 0 to Vec.dim a_prev - 1 do
                Mat.set gw i j (Mat.get gw i j +. (d.(i) *. a_prev.(j)))
              done
            done;
            if li > 0 then begin
              let upstream = Mat.tmul_vec layer_arr.(li).weights d in
              delta :=
                Array.mapi (fun i u -> if activations.(li).(i) > 0.0 then u else 0.0) upstream
            end
          done
        done;
        for li = 0 to n_layers - 1 do
          let { weights; bias } = layer_arr.(li) in
          let vw, vb = vel_arr.(li) in
          let gw = grad_w.(li) and gb = grad_b.(li) in
          for i = 0 to weights.rows - 1 do
            for j = 0 to weights.cols - 1 do
              let g = (Mat.get gw i j /. batch_n) +. (1e-4 *. Mat.get weights i j) in
              let v = (0.9 *. Mat.get vw i j) -. (params.learning_rate *. g) in
              Mat.set vw i j v;
              Mat.set weights i j (Mat.get weights i j +. v)
            done;
            let g = gb.(i) /. batch_n in
            let v = (0.9 *. vb.(i)) -. (params.learning_rate *. g) in
            vb.(i) <- v;
            bias.(i) <- bias.(i) +. v
          done
        done;
        batch_start := batch_end
      done
    done;
    (Array.to_list layer_arr, mean, std)
end

(* 1-3 hidden layers of width 1-33, 1-3 epochs, 2-5 classes and 1-130
   samples, so most runs end on a partial mini-batch. *)
let mlp_case_gen =
  let open QCheck2.Gen in
  let* n_features = int_range 1 6 and* n_classes = int_range 2 5 in
  let* n = oneof [ int_range 1 130; oneofl [ 32; 64; 96 ] ] in
  let* rows =
    list_repeat n
      (pair (array_repeat n_features (int_range (-50) 50)) (int_range 0 (n_classes - 1)))
  in
  let+ hidden = list_size (int_range 1 3) (int_range 1 33)
  and+ epochs = int_range 1 3
  and+ learning_rate = oneofl [ 0.05; 0.01; 0.3 ]
  and+ seed = int_range 0 1_000_000 in
  let ds =
    Dataset.of_samples ~n_features ~n_classes
      (List.map (fun (features, label) -> { Dataset.features; label }) rows)
  in
  ({ Mlp.hidden; epochs; learning_rate }, seed, ds)

let print_mlp_case ((p : Mlp.params), seed, ds) =
  Printf.sprintf "hidden=[%s] epochs=%d lr=%g seed=%d features=%d classes=%d samples=%d"
    (String.concat ";" (List.map string_of_int p.hidden))
    p.epochs p.learning_rate seed (Dataset.n_features ds) (Dataset.n_classes ds)
    (Dataset.length ds)

let prop_mlp_matches_oracle =
  QCheck2.Test.make ~name:"flat train = Vec/Mat oracle, bit for bit" ~count:300
    ~print:print_mlp_case mlp_case_gen (fun (params, seed, ds) ->
      let bits a = Array.map Int64.bits_of_float a in
      let mlp = Mlp.train ~params ~rng:(Rng.create seed) ds in
      let ((olayers, omean, ostd) as oracle) =
        Oracle_mlp.train params ~rng:(Rng.create seed) ds
      in
      List.length olayers = List.length (Mlp.layers mlp)
      && List.for_all2
           (fun (l : Mlp.layer) (o : Oracle_mlp.layer) ->
             l.fan_out = o.weights.rows && l.fan_in = o.weights.cols
             && bits l.weights = bits o.weights.data
             && bits l.bias = bits o.bias)
           (Mlp.layers mlp) olayers
      && bits (Mlp.feature_mean mlp) = bits omean
      && bits (Mlp.feature_std mlp) = bits ostd
      && Dataset.fold
           (fun ok s ->
             ok
             && bits (Mlp.predict_probs mlp s.Dataset.features)
                = bits (Oracle_mlp.predict_probs oracle s.Dataset.features))
           true ds)

(* An extra epoch of [train] allocates nothing per sample or per batch:
   its shuffle's [Rng.int] draws allocate nothing either.  Per-call
   scratch is the same at any epoch count, so it cancels in the
   difference; the constant slack covers [Gc.minor_words]'s boxed floats,
   and is smaller than one 2-word vector per sample. *)
let test_mlp_train_allocation () =
  let rng = Rng.create 71 in
  let ds = Dataset.create ~n_features:15 ~n_classes:2 in
  for _ = 1 to 640 do
    let features = Array.init 15 (fun _ -> Rng.int rng 100) in
    Dataset.add ds { Dataset.features; label = features.(0) mod 2 }
  done;
  let words epochs =
    let params = { Mlp.hidden = [ 32; 16 ]; epochs; learning_rate = 0.05 } in
    let rng = Rng.create 5 in
    let before = Gc.minor_words () in
    ignore (Mlp.train ~params ~rng ds : Mlp.t);
    Gc.minor_words () -. before
  in
  ignore (words 1);
  let extra = words 2 -. words 1 in
  let samples = Dataset.length ds in
  let bound = 128 in
  if extra > float_of_int bound then
    Alcotest.failf "one extra epoch over %d samples allocated %.0f minor words (bound %d)"
      samples extra bound

(* ---------------- Quantization ---------------- *)

let test_qmlp_matches_float_mostly () =
  let rng = Rng.create 53 in
  let train = linear_dataset ~rng ~n:600 and test = linear_dataset ~rng ~n:300 in
  let mlp = Mlp.train ~rng train in
  let q = Quantize.Qmlp.of_mlp mlp in
  let agree = ref 0 in
  Dataset.iter
    (fun s ->
      if Quantize.Qmlp.predict q s.Dataset.features = Mlp.predict mlp s.Dataset.features then
        incr agree)
    test;
  let rate = float_of_int !agree /. float_of_int (Dataset.length test) in
  Alcotest.(check bool) (Printf.sprintf "agreement %.3f > 0.97" rate) true (rate > 0.97)

let test_quantize_accuracy_drop_small () =
  let rng = Rng.create 59 in
  let ds = linear_dataset ~rng ~n:600 in
  let mlp = Mlp.train ~rng ds in
  let q = Quantize.Qmlp.of_mlp mlp in
  let drop =
    Metrics.accuracy_of ~predict:(Mlp.predict mlp) ds
    -. Metrics.accuracy_of ~predict:(Quantize.Qmlp.predict q) ds
  in
  Alcotest.(check bool) (Printf.sprintf "drop %.4f < 0.02" drop) true (Float.abs drop < 0.02)

let test_qmlp_integer_only_inference () =
  (* Q16.16 inference never constructs a float at runtime; we can only test
     observable behaviour: same architecture, deterministic output. *)
  let rng = Rng.create 61 in
  let mlp = Mlp.train ~rng (linear_dataset ~rng ~n:100) in
  let q = Quantize.Qmlp.of_mlp mlp in
  Alcotest.(check (list int)) "architecture preserved" (Mlp.architecture mlp)
    (Quantize.Qmlp.architecture q);
  let a = Quantize.Qmlp.predict q [| 1; 2; 3 |] and b = Quantize.Qmlp.predict q [| 1; 2; 3 |] in
  Alcotest.(check int) "deterministic" a b

(* ---------------- Linear models ---------------- *)

let test_perceptron_learns_linear () =
  let rng = Rng.create 67 in
  let train = linear_dataset ~rng ~n:600 and test = linear_dataset ~rng ~n:200 in
  let p = Linear.Perceptron.train ~rng train in
  let acc = Metrics.accuracy_of ~predict:(Linear.Perceptron.predict p) test in
  (* 20 passes read 0.890 on this data. *)
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.85" acc) true (acc > 0.85)

let test_perceptron_online_api () =
  let p = Linear.Perceptron.create ~n_features:2 ~n_classes:2 in
  (* Teach y = f0 > 5 with a few rounds of online updates. *)
  for _ = 1 to 30 do
    for f0 = 0 to 10 do
      Linear.Perceptron.learn p [| f0; 1 |] (if f0 > 5 then 1 else 0)
    done
  done;
  Alcotest.(check int) "low side" 0 (Linear.Perceptron.predict p [| 2; 1 |]);
  Alcotest.(check int) "high side" 1 (Linear.Perceptron.predict p [| 9; 1 |])

let test_svm_learns_linear () =
  let rng = Rng.create 71 in
  let train = linear_dataset ~rng ~n:600 and test = linear_dataset ~rng ~n:200 in
  let svm = Linear.Svm.train ~rng train in
  let acc = Metrics.accuracy_of ~predict:(Linear.Svm.predict svm) test in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.9" acc) true (acc > 0.9)

let test_svm_cannot_learn_xor () =
  let rng = Rng.create 73 in
  let train = xor_dataset ~rng ~n:600 and test = xor_dataset ~rng ~n:200 in
  let svm = Linear.Svm.train ~rng train in
  let acc = Metrics.accuracy_of ~predict:(Linear.Svm.predict svm) test in
  Alcotest.(check bool) (Printf.sprintf "xor accuracy %.3f < 0.75" acc) true (acc < 0.75)

(* ---------------- Feature ranking ---------------- *)

let test_permutation_ranking () =
  let rng = Rng.create 79 in
  let ds = linear_dataset ~rng ~n:600 in
  let tree = Decision_tree.train ds in
  let ranking =
    Feature_rank.permutation ~rng ~predict:(Decision_tree.predict tree) ds
  in
  (* f1 has weight 2, f0 weight 1, f2 none: order must put f2 last. *)
  Alcotest.(check int) "noise last" 2 ranking.Feature_rank.order.(2);
  Alcotest.(check bool) "f1 strongest" true
    (ranking.Feature_rank.scores.(1) >= ranking.Feature_rank.scores.(0))

let test_top_k () =
  let ranking = { Feature_rank.scores = [| 0.1; 0.5; 0.3 |]; order = [| 1; 2; 0 |] } in
  Alcotest.(check (array int)) "top 2" [| 1; 2 |] (Feature_rank.top_k ranking 2);
  Alcotest.check_raises "bad k" (Invalid_argument "Feature_rank.top_k: bad k") (fun () ->
      ignore (Feature_rank.top_k ranking 5))

(* ---------------- Distillation ---------------- *)

let test_distill_fidelity () =
  let rng = Rng.create 83 in
  let train = linear_dataset ~rng ~n:600 in
  let mlp = Mlp.train ~rng train in
  let teacher = Mlp.predict mlp in
  let extra = Distill.augment_inputs ~rng train ~n:400 in
  let student = Distill.to_tree ~teacher ~extra_inputs:extra train in
  let fid = Distill.fidelity ~student:(Decision_tree.predict student) ~teacher train in
  Alcotest.(check bool) (Printf.sprintf "fidelity %.3f > 0.9" fid) true (fid > 0.9);
  (* The student must be drastically smaller than the teacher. *)
  let teacher_cost = Model_cost.of_mlp_architecture (Mlp.architecture mlp) in
  let student_cost = Model_cost.of_tree student in
  Alcotest.(check bool) "student cheaper" true
    (student_cost.Model_cost.macs < teacher_cost.Model_cost.macs)

let test_augment_inputs_in_range () =
  let rng = Rng.create 89 in
  let ds = linear_dataset ~rng ~n:100 in
  let extra = Distill.augment_inputs ~rng ds ~n:50 in
  Alcotest.(check int) "count" 50 (List.length extra);
  List.iter
    (fun f ->
      Array.iter (fun v -> Alcotest.(check bool) "within observed range" true (v >= 0 && v < 20)) f)
    extra

(* ---------------- NAS ---------------- *)

let test_nas_finds_model () =
  let rng = Rng.create 97 in
  let train = linear_dataset ~rng ~n:300 and validation = linear_dataset ~rng ~n:150 in
  let result = Nas.search ~rng ~budget:Model_cost.default_budget ~train ~validation () in
  Alcotest.(check bool) "best accuracy decent" true (result.Nas.best.Nas.val_accuracy > 0.85);
  Alcotest.(check bool) "explored some" true (List.length result.Nas.explored > 0)

let test_nas_prunes_by_budget () =
  let rng = Rng.create 101 in
  let train = linear_dataset ~rng ~n:200 and validation = linear_dataset ~rng ~n:100 in
  let tiny = { Kml.Model_cost.max_macs = 60; max_comparisons = 8; max_memory_words = 400 } in
  let result = Nas.search ~rng ~budget:tiny ~train ~validation () in
  Alcotest.(check bool) "pruned some" true (result.Nas.pruned > 0);
  Alcotest.(check bool) "winner fits" true (Model_cost.within result.Nas.best.Nas.cost tiny)

(* ---------------- Model cost ---------------- *)

let test_cost_mlp_architecture () =
  let c = Model_cost.of_mlp_architecture [ 15; 16; 2 ] in
  Alcotest.(check int) "macs" ((15 * 16) + (16 * 2) + 15) c.Model_cost.macs;
  Alcotest.(check int) "comparisons" 2 c.Model_cost.comparisons

let test_cost_tree () =
  let rng = Rng.create 103 in
  let tree = Decision_tree.train (linear_dataset ~rng ~n:300) in
  let c = Model_cost.of_tree tree in
  Alcotest.(check int) "comparisons = depth" (Decision_tree.depth tree) c.Model_cost.comparisons;
  Alcotest.(check int) "zero macs" 0 c.Model_cost.macs

let test_cost_budget () =
  let c = { Model_cost.macs = 100; comparisons = 10; memory_words = 1000 } in
  let b = { Model_cost.max_macs = 100; max_comparisons = 10; max_memory_words = 1000 } in
  Alcotest.(check bool) "at limit ok" true (Model_cost.within c b);
  Alcotest.(check bool) "over limit" false
    (Model_cost.within { c with Model_cost.macs = 101 } b)

let suite =
  [ ( "decision_tree",
      [ Alcotest.test_case "learns linear" `Quick test_tree_learns_linear;
        Alcotest.test_case "learns xor" `Quick test_tree_learns_xor;
        Alcotest.test_case "empty dataset" `Quick test_tree_empty_dataset;
        Alcotest.test_case "pure dataset" `Quick test_tree_pure_dataset;
        Alcotest.test_case "depth limit" `Quick test_tree_depth_limit;
        Alcotest.test_case "arity check" `Quick test_tree_arity_check;
        Alcotest.test_case "relabel keeps the splits" `Quick test_tree_relabel_leaves;
        QCheck_alcotest.to_alcotest prop_tree_predict_total;
        Alcotest.test_case "workspace limits" `Quick test_tree_workspace_limits;
        QCheck_alcotest.to_alcotest prop_tree_matches_oracle;
        QCheck_alcotest.to_alcotest prop_tree_rows_match_oracle;
        QCheck_alcotest.to_alcotest prop_tree_order_independent ] );
    ( "mlp",
      [ Alcotest.test_case "learns linear" `Quick test_mlp_learns_linear;
        Alcotest.test_case "learns xor" `Slow test_mlp_learns_xor;
        Alcotest.test_case "probs sum to one" `Quick test_mlp_probs_sum_to_one;
        Alcotest.test_case "architecture" `Quick test_mlp_architecture;
        Alcotest.test_case "empty dataset" `Quick test_mlp_empty_dataset;
        Alcotest.test_case "extra epoch allocates no vectors" `Quick test_mlp_train_allocation;
        QCheck_alcotest.to_alcotest prop_mlp_matches_oracle ] );
    ( "quantize",
      [ Alcotest.test_case "qmlp matches float" `Quick test_qmlp_matches_float_mostly;
        Alcotest.test_case "accuracy drop small" `Quick test_quantize_accuracy_drop_small;
        Alcotest.test_case "integer inference" `Quick test_qmlp_integer_only_inference ] );
    ( "linear",
      [ Alcotest.test_case "perceptron learns linear" `Quick test_perceptron_learns_linear;
        Alcotest.test_case "perceptron online api" `Quick test_perceptron_online_api;
        Alcotest.test_case "svm learns linear" `Quick test_svm_learns_linear;
        Alcotest.test_case "svm cannot learn xor" `Quick test_svm_cannot_learn_xor ] );
    ( "feature_rank",
      [ Alcotest.test_case "permutation ranking" `Quick test_permutation_ranking;
        Alcotest.test_case "top_k" `Quick test_top_k ] );
    ( "distill",
      [ Alcotest.test_case "fidelity and size" `Quick test_distill_fidelity;
        Alcotest.test_case "augment in range" `Quick test_augment_inputs_in_range ] );
    ( "nas",
      [ Alcotest.test_case "finds model" `Slow test_nas_finds_model;
        Alcotest.test_case "prunes by budget" `Slow test_nas_prunes_by_budget ] );
    ( "model_cost",
      [ Alcotest.test_case "mlp architecture" `Quick test_cost_mlp_architecture;
        Alcotest.test_case "tree" `Quick test_cost_tree;
        Alcotest.test_case "budget" `Quick test_cost_budget ] ) ]
