type ranking = { scores : float array; order : int array }

let rank_of_scores scores =
  let order = Array.init (Array.length scores) Fun.id in
  Array.sort
    (fun a b ->
      match compare scores.(b) scores.(a) with 0 -> compare a b | c -> c)
    order;
  { scores; order }

let permutation ~rng ~predict ds =
  let repeats = 3 in
  let nf = Dataset.n_features ds in
  let baseline = Metrics.accuracy_of ~predict ds in
  let samples = Dataset.to_array ds in
  let n = Array.length samples in
  let scores = Array.make nf 0.0 in
  for f = 0 to nf - 1 do
    let drop_total = ref 0.0 in
    for _ = 1 to repeats do
      (* Shuffle column f across samples, keeping other columns intact. *)
      let column = Array.map (fun s -> s.Dataset.features.(f)) samples in
      Rng.shuffle rng column;
      let correct = ref 0 in
      for i = 0 to n - 1 do
        let features = Array.copy samples.(i).Dataset.features in
        features.(f) <- column.(i);
        if predict features = samples.(i).Dataset.label then incr correct
      done;
      let permuted_acc = if n = 0 then 0.0 else float_of_int !correct /. float_of_int n in
      drop_total := !drop_total +. (baseline -. permuted_acc)
    done;
    scores.(f) <- !drop_total /. float_of_int repeats
  done;
  rank_of_scores scores

let top_k ranking k =
  if k < 0 || k > Array.length ranking.order then invalid_arg "Feature_rank.top_k: bad k";
  Array.sub ranking.order 0 k
