type layer = { fan_in : int; fan_out : int; weights : float array; bias : float array }

type t = {
  layers : layer array;
  n_features : int;
  n_classes : int;
  mean : float array;
  std : float array;
}

type params = { hidden : int list; epochs : int; learning_rate : float }

let default_params = { hidden = [ 16; 16 ]; epochs = 30; learning_rate = 0.05 }

(* Minibatch size and the SGD update's momentum and L2 weight decay. *)
let batch_size = 32
let momentum = 0.9
let weight_decay = 1e-4

let feature_stats ds =
  let nf = Dataset.n_features ds and n = Dataset.length ds in
  let mean = Array.make nf 0.0 and var = Array.make nf 0.0 in
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

(* [out <- W x + b], each dot product summed with [j] ascending from 0.0
   before the bias is added; hidden layers then apply the ReLU. *)
let forward_layer { fan_in; fan_out; weights; bias } ~relu x out =
  for i = 0 to fan_out - 1 do
    let base = i * fan_in in
    let acc = ref 0.0 in
    for j = 0 to fan_in - 1 do
      acc := !acc +. (weights.(base + j) *. x.(j))
    done;
    let z = !acc +. bias.(i) in
    out.(i) <- (if relu then Float.max 0.0 z else z)
  done

(* In place: max, then exp, then a left-to-right sum from 0.0. *)
let softmax_inplace z =
  let m = ref neg_infinity in
  for i = 0 to Array.length z - 1 do
    m := Float.max !m z.(i)
  done;
  let s = ref 0.0 in
  for i = 0 to Array.length z - 1 do
    let e = exp (z.(i) -. !m) in
    z.(i) <- e;
    s := !s +. e
  done;
  for i = 0 to Array.length z - 1 do
    z.(i) <- z.(i) /. !s
  done

let predict_probs t features =
  if Array.length features <> t.n_features then invalid_arg "Mlp.predict_probs: arity mismatch";
  let last = Array.length t.layers - 1 in
  let x = ref (normalize_with ~mean:t.mean ~std:t.std features) in
  Array.iteri
    (fun li l ->
      let out = Array.make l.fan_out 0.0 in
      forward_layer l ~relu:(li < last) !x out;
      x := out)
    t.layers;
  softmax_inplace !x;
  !x

(* First index of the maximum probability: ties go to the lower class. *)
let predict t features =
  let p = predict_probs t features in
  let best = ref 0 in
  for i = 1 to Array.length p - 1 do
    if p.(i) > p.(!best) then best := i
  done;
  !best

let train ?(params = default_params) ~rng ds =
  if Dataset.length ds = 0 then invalid_arg "Mlp.train: empty dataset";
  let nf = Dataset.n_features ds and nc = Dataset.n_classes ds in
  let mean, std = feature_stats ds in
  let widths = Array.of_list ((nf :: params.hidden) @ [ nc ]) in
  let n_layers = Array.length widths - 1 in
  let zeros n = Array.make n 0.0 in
  (* Glorot-uniform weights drawn row-major, the last layer first: the
     list-built trainer this replaces evaluated [layer :: make_layers rest]
     tail first, and that draw order fixes every trained weight. *)
  let layers = Array.make n_layers { fan_in = 0; fan_out = 0; weights = [||]; bias = [||] } in
  for li = n_layers - 1 downto 0 do
    let fan_in = widths.(li) and fan_out = widths.(li + 1) in
    let limit = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
    let weights = Array.init (fan_in * fan_out) (fun _ -> Rng.float rng (2.0 *. limit) -. limit) in
    layers.(li) <- { fan_in; fan_out; weights; bias = zeros fan_out }
  done;
  (* Per-call scratch: [acts.(li)] is layer [li]'s input ([acts.(0)] the
     sample itself), [deltas.(li)] its output delta. *)
  let size f = Array.map (fun l -> zeros (f l)) layers in
  let acts = size (fun l -> l.fan_in) in
  let deltas = size (fun l -> l.fan_out) in
  let grad_w = size (fun l -> l.fan_in * l.fan_out) and grad_b = size (fun l -> l.fan_out) in
  let vel_w = size (fun l -> l.fan_in * l.fan_out) and vel_b = size (fun l -> l.fan_out) in
  let samples = Dataset.to_array ds in
  let inputs = Array.map (fun s -> normalize_with ~mean ~std s.Dataset.features) samples in
  let n = Array.length samples in
  let order = Array.init n Fun.id in
  for _epoch = 1 to params.epochs do
    Rng.shuffle rng order;
    let batch_start = ref 0 in
    while !batch_start < n do
      let batch_end = Stdlib.min n (!batch_start + batch_size) in
      let batch_n = float_of_int (batch_end - !batch_start) in
      Array.iter (fun g -> Array.fill g 0 (Array.length g) 0.0) grad_w;
      Array.iter (fun g -> Array.fill g 0 (Array.length g) 0.0) grad_b;
      for k = !batch_start to batch_end - 1 do
        let idx = order.(k) in
        let label = samples.(idx).Dataset.label in
        acts.(0) <- inputs.(idx);
        for li = 0 to n_layers - 1 do
          let out = if li = n_layers - 1 then deltas.(li) else acts.(li + 1) in
          forward_layer layers.(li) ~relu:(li < n_layers - 1) acts.(li) out
        done;
        (* Output delta: softmax - onehot. *)
        let d = deltas.(n_layers - 1) in
        softmax_inplace d;
        for c = 0 to nc - 1 do
          d.(c) <- d.(c) -. if c = label then 1.0 else 0.0
        done;
        for li = n_layers - 1 downto 0 do
          let { fan_in; fan_out; weights; _ } = layers.(li) in
          let a_prev = acts.(li) and d = deltas.(li) in
          let gw = grad_w.(li) and gb = grad_b.(li) in
          for i = 0 to fan_out - 1 do
            gb.(i) <- gb.(i) +. d.(i);
            let base = i * fan_in in
            for j = 0 to fan_in - 1 do
              gw.(base + j) <- gw.(base + j) +. (d.(i) *. a_prev.(j))
            done
          done;
          if li > 0 then begin
            (* Wᵀd, [i] outer, gated by the ReLU on layer [li]'s input. *)
            let up = deltas.(li - 1) in
            Array.fill up 0 fan_in 0.0;
            for i = 0 to fan_out - 1 do
              let base = i * fan_in and di = d.(i) in
              for j = 0 to fan_in - 1 do
                up.(j) <- up.(j) +. (weights.(base + j) *. di)
              done
            done;
            for j = 0 to fan_in - 1 do
              if not (a_prev.(j) > 0.0) then up.(j) <- 0.0
            done
          end
        done
      done;
      (* SGD with momentum + weight decay. *)
      for li = 0 to n_layers - 1 do
        let { weights; bias; _ } = layers.(li) in
        let gw = grad_w.(li) and gb = grad_b.(li) and vw = vel_w.(li) and vb = vel_b.(li) in
        for k = 0 to Array.length weights - 1 do
          let g = (gw.(k) /. batch_n) +. (weight_decay *. weights.(k)) in
          let v = (momentum *. vw.(k)) -. (params.learning_rate *. g) in
          vw.(k) <- v;
          weights.(k) <- weights.(k) +. v
        done;
        for i = 0 to Array.length bias - 1 do
          let g = gb.(i) /. batch_n in
          let v = (momentum *. vb.(i)) -. (params.learning_rate *. g) in
          vb.(i) <- v;
          bias.(i) <- bias.(i) +. v
        done
      done;
      batch_start := batch_end
    done
  done;
  { layers; n_features = nf; n_classes = nc; mean; std }

let layers t = Array.to_list t.layers
let n_features t = t.n_features
let n_classes t = t.n_classes
let feature_mean t = t.mean
let feature_std t = t.std

let n_parameters t =
  Array.fold_left (fun acc l -> acc + (l.fan_in * l.fan_out) + l.fan_out) 0 t.layers

let architecture t =
  if Array.length t.layers = 0 then [ t.n_features ]
  else t.layers.(0).fan_in :: Array.to_list (Array.map (fun l -> l.fan_out) t.layers)
