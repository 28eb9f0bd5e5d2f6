let accuracy_of ~predict ds =
  let n_classes = Dataset.n_classes ds in
  let correct = ref 0 in
  Dataset.iter
    (fun (s : Dataset.sample) ->
      let predicted = predict s.features in
      if predicted < 0 || predicted >= n_classes then
        invalid_arg "Metrics.accuracy_of: class out of range";
      if predicted = s.label then incr correct)
    ds;
  let total = Dataset.length ds in
  if total = 0 then 0.0 else float_of_int !correct /. float_of_int total
