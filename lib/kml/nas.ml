type candidate = {
  hidden : int list;
  learning_rate : float;
  epochs : int;
  cost : Model_cost.t;
  val_accuracy : float;
}

type result = {
  best : candidate;
  model : Mlp.t;
  explored : candidate list;
  pruned : int;
}

let trials = 10
let widths = [| 4; 8; 16; 32 |]
let depths = [| 1; 2 |]

let search ~rng ~budget ~train ~validation () =
  if Dataset.length train = 0 then invalid_arg "Nas.search: empty training set";
  let nf = Dataset.n_features train and nc = Dataset.n_classes train in
  (* Trials are independent: trial [i] draws its hyper-parameters and its
     SGD stream from the index-keyed substream [Rng.split rng i], so the
     search fans out on the domain pool while the winner selection below
     — a sequential reduce in trial order — stays bit-identical to a
     sequential run at any pool width. *)
  let evaluate trial =
    let rng = Rng.split rng trial in
    let depth = depths.(Rng.int rng (Array.length depths)) in
    let hidden = List.init depth (fun _ -> widths.(Rng.int rng (Array.length widths))) in
    let learning_rate = [| 0.01; 0.03; 0.05; 0.1 |].(Rng.int rng 4) in
    let epochs = [| 15; 25; 40 |].(Rng.int rng 3) in
    let cost = Model_cost.of_mlp_architecture ((nf :: hidden) @ [ nc ]) in
    if not (Model_cost.within cost budget) then None
    else begin
      let params = { Mlp.hidden; learning_rate; epochs } in
      let model = Mlp.train ~params ~rng train in
      let val_accuracy = Metrics.accuracy_of ~predict:(Mlp.predict model) validation in
      Some ({ hidden; learning_rate; epochs; cost; val_accuracy }, model)
    end
  in
  let outcomes = Par.parallel_map (Par.global ()) evaluate (List.init trials Fun.id) in
  let pruned = ref 0 in
  let explored = ref [] in
  let best = ref None in
  List.iter
    (function
      | None -> incr pruned
      | Some ((cand, model) as pair) ->
        explored := pair :: !explored;
        let better =
          match !best with
          | None -> true
          | Some (b, _) ->
            cand.val_accuracy > b.val_accuracy
            || (cand.val_accuracy = b.val_accuracy
                && cand.cost.Model_cost.macs < b.cost.Model_cost.macs)
        in
        if better then best := Some (cand, model))
    outcomes;
  match !best with
  | None -> invalid_arg "Nas.search: no candidate fits the cost budget"
  | Some (best_cand, model) ->
    let by_accuracy =
      List.sort
        (fun (a, _) (b, _) -> compare b.val_accuracy a.val_accuracy)
        !explored
    in
    { best = best_cand; model; explored = List.map fst by_accuracy; pruned = !pruned }
