type sample = { features : int array; label : int }

type t = {
  n_features : int;
  n_classes : int;
  mutable samples : sample array;
  mutable len : int;
}

let create ~n_features ~n_classes =
  if n_features <= 0 then invalid_arg "Dataset.create: n_features must be positive";
  if n_classes <= 0 then invalid_arg "Dataset.create: n_classes must be positive";
  { n_features; n_classes; samples = [||]; len = 0 }

let length t = t.len
let n_features t = t.n_features
let n_classes t = t.n_classes

let ensure_capacity t =
  if t.len >= Array.length t.samples then begin
    let cap = Stdlib.max 16 (2 * Array.length t.samples) in
    let bigger = Array.make cap { features = [||]; label = 0 } in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end

let add t s =
  if Array.length s.features <> t.n_features then
    invalid_arg "Dataset.add: feature arity mismatch";
  if s.label < 0 || s.label >= t.n_classes then invalid_arg "Dataset.add: label out of range";
  ensure_capacity t;
  t.samples.(t.len) <- s;
  t.len <- t.len + 1

let of_samples ~n_features ~n_classes samples =
  let t = create ~n_features ~n_classes in
  List.iter (add t) samples;
  t

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Dataset.get: index out of bounds";
  t.samples.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.samples.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.samples.(i)
  done;
  !acc

let to_array t = Array.sub t.samples 0 t.len

let class_counts t =
  let counts = Array.make t.n_classes 0 in
  iter (fun s -> counts.(s.label) <- counts.(s.label) + 1) t;
  counts

let split t ~rng ~train_fraction =
  if train_fraction < 0.0 || train_fraction > 1.0 then
    invalid_arg "Dataset.split: train_fraction must be in [0,1]";
  let arr = to_array t in
  Rng.shuffle rng arr;
  let n_train = int_of_float (Float.round (train_fraction *. float_of_int t.len)) in
  let train = create ~n_features:t.n_features ~n_classes:t.n_classes in
  let test = create ~n_features:t.n_features ~n_classes:t.n_classes in
  Array.iteri (fun i s -> add (if i < n_train then train else test) s) arr;
  (train, test)

let project t ~keep =
  Array.iter
    (fun j -> if j < 0 || j >= t.n_features then invalid_arg "Dataset.project: column out of range")
    keep;
  let out = create ~n_features:(Array.length keep) ~n_classes:t.n_classes in
  iter
    (fun s -> add out { s with features = Array.map (fun j -> s.features.(j)) keep })
    t;
  out

let pp_summary fmt t =
  Format.fprintf fmt "dataset: %d samples, %d features, %d classes, counts=[%s]" t.len
    t.n_features t.n_classes
    (String.concat "; " (Array.to_list (Array.map string_of_int (class_counts t))))
