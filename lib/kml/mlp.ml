open Tensor

type layer = { weights : Mat.t; bias : Vec.t }

type t = {
  layers : layer list;
  n_features : int;
  n_classes : int;
  mean : Vec.t;
  std : Vec.t;
}

type params = { hidden : int list; epochs : int; learning_rate : float }

let default_params = { hidden = [ 16; 16 ]; epochs = 30; learning_rate = 0.05 }

(* Minibatch size and the SGD update's momentum and L2 weight decay. *)
let batch_size = 32
let momentum = 0.9
let weight_decay = 1e-4

let feature_stats ds =
  let nf = Dataset.n_features ds and n = Dataset.length ds in
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
  (mean, std)

let normalize_with ~mean ~std features =
  Array.init (Array.length features) (fun j -> (float_of_int features.(j) -. mean.(j)) /. std.(j))

let normalize t features =
  if Array.length features <> t.n_features then invalid_arg "Mlp.normalize: arity mismatch";
  normalize_with ~mean:t.mean ~std:t.std features

(* Forward pass keeping pre- and post-activation of each layer for backprop.
   Returns (activations, logits) where activations.(0) is the input. *)
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

let logits t input = snd (forward_full t.layers input)

let softmax z =
  let m = Array.fold_left Float.max neg_infinity z in
  let e = Array.map (fun x -> exp (x -. m)) z in
  let s = Array.fold_left ( +. ) 0.0 e in
  Array.map (fun x -> x /. s) e

let predict_probs t features =
  if Array.length features <> t.n_features then invalid_arg "Mlp.predict_probs: arity mismatch";
  softmax (logits t (normalize t features))

let predict t features = Vec.max_index (predict_probs t features)

let glorot_init rng ~fan_in ~fan_out =
  let limit = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  Mat.init ~rows:fan_out ~cols:fan_in (fun _ _ -> Rng.float rng (2.0 *. limit) -. limit)

let train ?(params = default_params) ~rng ds =
  if Dataset.length ds = 0 then invalid_arg "Mlp.train: empty dataset";
  let nf = Dataset.n_features ds and nc = Dataset.n_classes ds in
  let mean, std = feature_stats ds in
  let widths = (nf :: params.hidden) @ [ nc ] in
  let rec make_layers = function
    | fan_in :: (fan_out :: _ as rest) ->
      { weights = glorot_init rng ~fan_in ~fan_out; bias = Vec.create fan_out }
      :: make_layers rest
    | [ _ ] | [] -> []
  in
  let layers = make_layers widths in
  let velocity =
    List.map
      (fun { weights; bias } ->
        ( Mat.create ~rows:(Mat.rows weights) ~cols:(Mat.cols weights),
          Vec.create (Vec.dim bias) ))
      layers
  in
  let samples = Dataset.to_array ds in
  let inputs =
    Array.map (fun s -> normalize_with ~mean ~std s.Dataset.features) samples
  in
  let order = Array.init (Array.length samples) Fun.id in
  let n_layers = List.length layers in
  let layer_arr = Array.of_list layers in
  let vel_arr = Array.of_list velocity in
  for _epoch = 1 to params.epochs do
    Rng.shuffle rng order;
    let batch_start = ref 0 in
    while !batch_start < Array.length order do
      let batch_end = Stdlib.min (Array.length order) (!batch_start + batch_size) in
      let batch_n = float_of_int (batch_end - !batch_start) in
      (* Accumulate gradients over the batch. *)
      let grad_w =
        Array.map (fun l -> Mat.create ~rows:(Mat.rows l.weights) ~cols:(Mat.cols l.weights))
          layer_arr
      in
      let grad_b = Array.map (fun l -> Vec.create (Vec.dim l.bias)) layer_arr in
      for k = !batch_start to batch_end - 1 do
        let idx = order.(k) in
        let x = inputs.(idx) and label = samples.(idx).Dataset.label in
        let activations, z = forward_full (Array.to_list layer_arr) x in
        let probs = softmax z in
        (* delta at output: softmax - onehot *)
        let delta = ref (Array.mapi (fun c p -> p -. if c = label then 1.0 else 0.0) probs) in
        for li = n_layers - 1 downto 0 do
          let a_prev = activations.(li) in
          let d = !delta in
          (* grad accumulation *)
          let gw = grad_w.(li) and gb = grad_b.(li) in
          for i = 0 to Vec.dim d - 1 do
            gb.(i) <- gb.(i) +. d.(i);
            for j = 0 to Vec.dim a_prev - 1 do
              Mat.set gw i j (Mat.get gw i j +. (d.(i) *. a_prev.(j)))
            done
          done;
          if li > 0 then begin
            (* ReLU derivative gates on the post-activation of layer li-1,
               i.e. activations.(li). *)
            let upstream = Mat.tmul_vec layer_arr.(li).weights d in
            delta :=
              Array.mapi (fun i u -> if activations.(li).(i) > 0.0 then u else 0.0) upstream
          end
        done
      done;
      (* SGD with momentum + weight decay. *)
      for li = 0 to n_layers - 1 do
        let { weights; bias } = layer_arr.(li) in
        let vw, vb = vel_arr.(li) in
        let gw = grad_w.(li) and gb = grad_b.(li) in
        for i = 0 to Mat.rows weights - 1 do
          for j = 0 to Mat.cols weights - 1 do
            let g = (Mat.get gw i j /. batch_n) +. (weight_decay *. Mat.get weights i j) in
            let v = (momentum *. Mat.get vw i j) -. (params.learning_rate *. g) in
            Mat.set vw i j v;
            Mat.set weights i j (Mat.get weights i j +. v)
          done;
          let g = gb.(i) /. batch_n in
          let v = (momentum *. vb.(i)) -. (params.learning_rate *. g) in
          vb.(i) <- v;
          bias.(i) <- bias.(i) +. v
        done
      done;
      batch_start := batch_end
    done
  done;
  { layers = Array.to_list layer_arr; n_features = nf; n_classes = nc; mean; std }

let layers t = t.layers
let n_features t = t.n_features
let n_classes t = t.n_classes
let feature_mean t = t.mean
let feature_std t = t.std

let n_parameters t =
  List.fold_left
    (fun acc { weights; bias } -> acc + (Mat.rows weights * Mat.cols weights) + Vec.dim bias)
    0 t.layers

let architecture t =
  match t.layers with
  | [] -> [ t.n_features ]
  | first :: _ ->
    Mat.cols first.weights :: List.map (fun l -> Mat.rows l.weights) t.layers
