open Tensor

module Qmlp = struct
  type qlayer = { weights : Qmat.t; bias : Qvec.t }

  type t = {
    layers : qlayer list;
    layers_arr : qlayer array; (* same layers, indexable for the batch pass *)
    n_features : int;
    n_classes : int;
    mean : Qvec.t;
    inv_std : Qvec.t; (* 1/std precomputed: kernel-side division is avoided *)
    scratch : Qvec.t array; (* per-layer output buffers, reused across calls *)
    input : Qvec.t;         (* normalized-input buffer, reused across calls *)
    maxdim : int;           (* max activation width: batch-plane row stride *)
    mutable bcap : int;     (* slots the batch planes currently hold *)
    mutable bx : Qvec.t;    (* batch activation planes, slot-major with *)
    mutable by : Qvec.t;    (* stride [maxdim]; grown on demand, then reused *)
  }

  let of_mlp mlp =
    let layers =
      List.map
        (fun { Mlp.fan_in; fan_out; weights; bias } ->
          { weights = Qmat.of_floats ~rows:fan_out ~cols:fan_in weights;
            bias = Qvec.of_floats bias })
        (Mlp.layers mlp)
    in
    let scratch =
      Array.of_list (List.map (fun l -> Qvec.create (Qmat.rows l.weights)) layers)
    in
    let n_features = Mlp.n_features mlp in
    { layers;
      layers_arr = Array.of_list layers;
      n_features;
      n_classes = Mlp.n_classes mlp;
      mean = Qvec.of_floats (Mlp.feature_mean mlp);
      inv_std = Qvec.of_floats (Array.map (fun s -> 1.0 /. s) (Mlp.feature_std mlp));
      scratch;
      input = Qvec.create n_features;
      maxdim = List.fold_left (fun acc l -> Stdlib.max acc (Qmat.rows l.weights)) n_features layers;
      bcap = 0;
      bx = [||];
      by = [||] }

  let normalize t features =
    if Array.length features <> t.n_features then invalid_arg "Qmlp: feature arity mismatch";
    for j = 0 to t.n_features - 1 do
      t.input.(j) <-
        Fixed.mul (Fixed.sub (Fixed.of_int features.(j)) t.mean.(j)) t.inv_std.(j)
    done;
    t.input

  let logits t features =
    let x = ref (normalize t features) in
    let n = List.length t.layers in
    List.iteri
      (fun i { weights; bias } ->
        let out = t.scratch.(i) in
        Qmat.mul_vec_into weights !x out;
        Qvec.add_inplace out bias;
        if i < n - 1 then Qvec.relu_inplace out;
        x := out)
      t.layers;
    Array.copy !x

  let predict t features = Qvec.max_index (logits t features)

  let ensure_batch t n =
    if n > t.bcap then begin
      let cap = Stdlib.max 8 (Stdlib.max n (2 * t.bcap)) in
      t.bcap <- cap;
      t.bx <- Qvec.create (cap * t.maxdim);
      t.by <- Qvec.create (cap * t.maxdim)
    end

  (* Batched forward pass: activations live in two slot-major ping-pong
     planes (stride [maxdim]) so each layer is one weight-row-major
     [Qmat.mul_vec_batch] over the whole batch — the weights are read once
     per layer instead of once per slot.  Per slot the arithmetic (and so
     the predicted class) is bit-identical to [predict]; allocation-free
     once the planes cover [n] slots. *)
  let predict_batch t ~features ~n ~out =
    let nf = t.n_features in
    if n < 0 || Array.length features < n * nf then
      invalid_arg "Qmlp.predict_batch: feature buffer too small";
    if Array.length out < n then invalid_arg "Qmlp.predict_batch: output buffer too small";
    ensure_batch t n;
    (* As in [Qmat.mul_vec_batch]: the argument checks above (plus
       [ensure_batch] and the constructor's invariants — [mean]/[inv_std]
       have arity [nf], every activation fits [maxdim], biases match
       their layer's rows) prove every index in the per-slot loops below,
       so they run unchecked; one validation amortizes over the batch. *)
    let md = t.maxdim in
    let bx = t.bx and mean = t.mean and inv_std = t.inv_std in
    for s = 0 to n - 1 do
      let fb = s * nf and xb = s * md in
      for j = 0 to nf - 1 do
        Array.unsafe_set bx (xb + j)
          (Fixed.mul
             (Fixed.sub
                (Fixed.of_int (Array.unsafe_get features (fb + j)))
                (Array.unsafe_get mean j))
             (Array.unsafe_get inv_std j))
      done
    done;
    let nl = Array.length t.layers_arr in
    for l = 0 to nl - 1 do
      let src = if l land 1 = 0 then t.bx else t.by in
      let dst = if l land 1 = 0 then t.by else t.bx in
      let { weights; bias } = t.layers_arr.(l) in
      Qmat.mul_vec_batch weights ~x:src ~xstride:md ~y:dst ~ystride:md ~n;
      let rows = Qmat.rows weights in
      if l < nl - 1 then
        for s = 0 to n - 1 do
          let db = s * md in
          for i = 0 to rows - 1 do
            Array.unsafe_set dst (db + i)
              (Fixed.relu (Fixed.add (Array.unsafe_get dst (db + i)) (Array.unsafe_get bias i)))
          done
        done
      else
        for s = 0 to n - 1 do
          let db = s * md in
          for i = 0 to rows - 1 do
            Array.unsafe_set dst (db + i)
              (Fixed.add (Array.unsafe_get dst (db + i)) (Array.unsafe_get bias i))
          done
        done
    done;
    let final = if nl land 1 = 0 then t.bx else t.by in
    let logit_dim =
      if nl = 0 then nf else Qmat.rows t.layers_arr.(nl - 1).weights
    in
    for s = 0 to n - 1 do
      let lb = s * md in
      let best = ref 0 in
      for i = 1 to logit_dim - 1 do
        if Fixed.( > ) (Array.unsafe_get final (lb + i)) (Array.unsafe_get final (lb + !best))
        then best := i
      done;
      Array.unsafe_set out s !best
    done
  let n_features t = t.n_features

  let architecture t =
    match t.layers with
    | [] -> [ t.n_features ]
    | first :: _ -> Qmat.cols first.weights :: List.map (fun l -> Qmat.rows l.weights) t.layers
end
