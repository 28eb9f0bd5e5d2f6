module Perceptron = struct
  (* Averaged multiclass perceptron.  [w] holds the working weights, [u] the
     step-weighted update accumulator; the averaged weights are
     [steps * w - u], which preserves the argmax without any division
     (everything stays integral). *)
  type t = {
    n_features : int;
    n_classes : int;
    w : int array array; (* n_classes x (n_features + 1); last column = bias *)
    u : int array array;
    mutable steps : int;
  }

  let create ~n_features ~n_classes =
    if n_features <= 0 || n_classes <= 0 then
      invalid_arg "Perceptron.create: dimensions must be positive";
    { n_features;
      n_classes;
      w = Array.init n_classes (fun _ -> Array.make (n_features + 1) 0);
      u = Array.init n_classes (fun _ -> Array.make (n_features + 1) 0);
      steps = 0 }

  let score_row row features n_features =
    let acc = ref row.(n_features) in
    for j = 0 to n_features - 1 do
      acc := !acc + (row.(j) * features.(j))
    done;
    !acc

  let argmax_working t features =
    let best = ref 0 and best_score = ref min_int in
    for c = 0 to t.n_classes - 1 do
      let s = score_row t.w.(c) features t.n_features in
      if s > !best_score then begin
        best := c;
        best_score := s
      end
    done;
    !best

  let learn t features label =
    if Array.length features <> t.n_features then invalid_arg "Perceptron.learn: arity mismatch";
    if label < 0 || label >= t.n_classes then invalid_arg "Perceptron.learn: label out of range";
    t.steps <- t.steps + 1;
    let predicted = argmax_working t features in
    if predicted <> label then begin
      let c = t.steps in
      for j = 0 to t.n_features - 1 do
        t.w.(label).(j) <- t.w.(label).(j) + features.(j);
        t.u.(label).(j) <- t.u.(label).(j) + (c * features.(j));
        t.w.(predicted).(j) <- t.w.(predicted).(j) - features.(j);
        t.u.(predicted).(j) <- t.u.(predicted).(j) - (c * features.(j))
      done;
      t.w.(label).(t.n_features) <- t.w.(label).(t.n_features) + 1;
      t.u.(label).(t.n_features) <- t.u.(label).(t.n_features) + c;
      t.w.(predicted).(t.n_features) <- t.w.(predicted).(t.n_features) - 1;
      t.u.(predicted).(t.n_features) <- t.u.(predicted).(t.n_features) - c
    end

  let predict t features =
    if Array.length features <> t.n_features then invalid_arg "Perceptron.predict: arity mismatch";
    let best = ref 0 and best_score = ref min_int in
    for c = 0 to t.n_classes - 1 do
      let sw = score_row t.w.(c) features t.n_features in
      let su = score_row t.u.(c) features t.n_features in
      let s = (Stdlib.max 1 t.steps * sw) - su in
      if s > !best_score then begin
        best := c;
        best_score := s
      end
    done;
    !best

  let epochs = 20

  let train ~rng ds =
    let t = create ~n_features:(Dataset.n_features ds) ~n_classes:(Dataset.n_classes ds) in
    let samples = Dataset.to_array ds in
    for _ = 1 to epochs do
      Rng.shuffle rng samples;
      Array.iter (fun s -> learn t s.Dataset.features s.Dataset.label) samples
    done;
    t

end

module Svm = struct
  type t = {
    n_features : int;
    n_classes : int;
    (* Quantized one-vs-rest separators; row c scores class c. *)
    w : Fixed.t array array; (* n_classes x n_features *)
    b : Fixed.t array;
    mean : Fixed.t array;
    inv_std : Fixed.t array;
  }

  let epochs = 20

  let train ~rng ds =
    let learning_rate = 0.01 and regularization = 1e-3 in
    if Dataset.length ds = 0 then invalid_arg "Svm.train: empty dataset";
    let nf = Dataset.n_features ds and nc = Dataset.n_classes ds in
    (* Standardize in float space. *)
    let n = Dataset.length ds in
    let mean = Array.make nf 0.0 and var = Array.make nf 0.0 in
    Dataset.iter
      (fun s ->
        Array.iteri (fun j v -> mean.(j) <- mean.(j) +. float_of_int v) s.Dataset.features)
      ds;
    Array.iteri (fun j v -> mean.(j) <- v /. float_of_int n) mean;
    Dataset.iter
      (fun s ->
        Array.iteri
          (fun j v ->
            let d = float_of_int v -. mean.(j) in
            var.(j) <- var.(j) +. (d *. d))
          s.Dataset.features)
      ds;
    let std = Array.map (fun v -> let s = sqrt (v /. float_of_int n) in if s < 1e-9 then 1.0 else s) var in
    let inputs =
      Array.map
        (fun s ->
          Array.init nf (fun j -> (float_of_int s.Dataset.features.(j) -. mean.(j)) /. std.(j)))
        (Dataset.to_array ds)
    in
    let labels = Array.map (fun s -> s.Dataset.label) (Dataset.to_array ds) in
    let w = Array.init nc (fun _ -> Array.make nf 0.0) in
    let b = Array.make nc 0.0 in
    let order = Array.init n Fun.id in
    for epoch = 1 to epochs do
      Rng.shuffle rng order;
      let lr = learning_rate /. (1.0 +. (float_of_int epoch /. 10.0)) in
      Array.iter
        (fun i ->
          let x = inputs.(i) in
          for c = 0 to nc - 1 do
            let y = if labels.(i) = c then 1.0 else -1.0 in
            let margin = ref b.(c) in
            for j = 0 to nf - 1 do
              margin := !margin +. (w.(c).(j) *. x.(j))
            done;
            (* hinge subgradient + L2 shrinkage *)
            for j = 0 to nf - 1 do
              let grad =
                (regularization *. w.(c).(j))
                -. if y *. !margin < 1.0 then y *. x.(j) else 0.0
              in
              w.(c).(j) <- w.(c).(j) -. (lr *. grad)
            done;
            if y *. !margin < 1.0 then b.(c) <- b.(c) +. (lr *. y)
          done)
        order
    done;
    { n_features = nf;
      n_classes = nc;
      w = Array.map (Array.map Fixed.of_float) w;
      b = Array.map Fixed.of_float b;
      mean = Array.map Fixed.of_float mean;
      inv_std = Array.map (fun s -> Fixed.of_float (1.0 /. s)) std }

  let decision t features =
    if Array.length features <> t.n_features then invalid_arg "Svm.decision: arity mismatch";
    let x =
      Array.init t.n_features (fun j ->
          Fixed.mul (Fixed.sub (Fixed.of_int features.(j)) t.mean.(j)) t.inv_std.(j))
    in
    Array.init t.n_classes (fun c ->
        let acc = ref t.b.(c) in
        for j = 0 to t.n_features - 1 do
          acc := Fixed.add !acc (Fixed.mul t.w.(c).(j) x.(j))
        done;
        !acc)

  let predict t features =
    let scores = decision t features in
    let best = ref 0 in
    for c = 1 to t.n_classes - 1 do
      if Fixed.( > ) scores.(c) scores.(!best) then best := c
    done;
    !best

  let n_features t = t.n_features
  let n_classes t = t.n_classes
end
