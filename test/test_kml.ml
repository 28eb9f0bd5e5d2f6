(* Tests for the kernel ML library: rng, tensor, dataset, metrics. *)
open Kml

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniformity () =
  let rng = Rng.create 42 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 8 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced (%d)" i c)
        true
        (abs (c - expected) < expected / 10))
    counts

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let c0 = Rng.split parent 0 and c1 = Rng.split parent 1 in
  (* pure: deriving the same index twice yields the same stream, and the
     parent state is untouched by the derivations *)
  let c0' = Rng.split parent 0 in
  let a = Array.init 20 (fun _ -> Rng.next c0) in
  let a' = Array.init 20 (fun _ -> Rng.next c0') in
  let b = Array.init 20 (fun _ -> Rng.next c1) in
  let p = Array.init 20 (fun _ -> Rng.next parent) in
  Alcotest.(check (array int)) "same index, same stream" a a';
  Alcotest.(check bool) "sibling streams differ" true (a <> b);
  Alcotest.(check bool) "child differs from parent" true (a <> p && b <> p);
  Alcotest.check_raises "negative index" (Invalid_argument "Rng.split: index must be non-negative")
    (fun () -> ignore (Rng.split parent (-1)))

(* Draws keep the 64-bit state unboxed and loop without a closure, so
   they allocate nothing.  The bound of 2^61 + 1 makes [int] reject about
   half its draws, so its retry loop runs too. *)
let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 9 and arr = Array.init 64 Fun.id in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = words ignore in
  let check name f =
    Alcotest.(check (float 0.0)) (name ^ " allocates nothing") 0.0 (words f -. overhead)
  in
  check "next" (fun () ->
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Rng.next rng) : int)
      done);
  check "int" (fun () ->
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Rng.int rng ((1 lsl 61) + 1)) : int)
      done);
  check "bool" (fun () ->
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Rng.bool rng) : bool)
      done);
  check "shuffle" (fun () ->
      for _ = 1 to 10 do
        Rng.shuffle rng arr
      done)

(* The determinism contract of the parallel experiment engine rests on
   [split]: distinct task indices must give non-colliding, uncorrelated
   substreams.  Check that (a) the first draws of 512 sibling substreams
   are pairwise distinct and differ from the parent's own next draws, and
   (b) consecutive siblings' first draws look avalanche-mixed (mean
   Hamming distance of the 62 usable bits near 31). *)
let prop_split_substreams_independent =
  QCheck2.Test.make ~name:"split: sibling substreams non-colliding and mixed" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let parent = Rng.create seed in
      let n = 512 in
      let firsts = Array.init n (fun i -> Rng.next (Rng.split parent i)) in
      let seen = Hashtbl.create (2 * n) in
      Array.iter (fun v -> Hashtbl.replace seen v ()) firsts;
      let pc = Rng.create seed in
      let parent_draws = Array.init n (fun _ -> Rng.next pc) in
      let collides = Array.exists (fun v -> Hashtbl.mem seen v) parent_draws in
      let popcount x =
        let c = ref 0 and v = ref x in
        while !v <> 0 do
          c := !c + (!v land 1);
          v := !v lsr 1
        done;
        !c
      in
      let dist = ref 0 in
      for i = 0 to n - 2 do
        dist := !dist + popcount (firsts.(i) lxor firsts.(i + 1))
      done;
      let mean = float_of_int !dist /. float_of_int (n - 1) in
      Hashtbl.length seen = n && (not collides) && mean > 24.0 && mean < 38.0)

(* ---------------- Tensor ---------------- *)

let test_qmat_mul_vec_matches_float () =
  let m = Array.init 12 (fun k -> (float_of_int k /. 7.0) -. 1.0) in
  let x = [| 0.5; -1.0; 2.0; 0.25 |] in
  let expected =
    Array.init 3 (fun i ->
        Array.fold_left ( +. ) 0.0 (Array.mapi (fun j xj -> m.((i * 4) + j) *. xj) x))
  in
  let got = Tensor.Qvec.create 3 in
  Tensor.Qmat.mul_vec_into (Tensor.Qmat.of_floats ~rows:3 ~cols:4 m) (Tensor.Qvec.of_floats x) got;
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) "row close" true (Float.abs (Fixed.to_float got.(i) -. e) < 0.005))
    expected

(* ---------------- Dataset ---------------- *)

let mk_dataset () =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  List.iter
    (fun (f, l) -> Dataset.add ds { Dataset.features = f; label = l })
    [ ([| 0; 0 |], 0); ([| 0; 1 |], 0); ([| 5; 0 |], 1); ([| 5; 1 |], 1); ([| 5; 2 |], 1) ];
  ds

let test_dataset_basics () =
  let ds = mk_dataset () in
  Alcotest.(check int) "length" 5 (Dataset.length ds);
  Alcotest.(check int) "n_features" 2 (Dataset.n_features ds);
  Alcotest.(check (array int)) "class counts" [| 2; 3 |] (Dataset.class_counts ds)

let test_dataset_validation () =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  Alcotest.check_raises "bad arity" (Invalid_argument "Dataset.add: feature arity mismatch")
    (fun () -> Dataset.add ds { Dataset.features = [| 1 |]; label = 0 });
  Alcotest.check_raises "bad label" (Invalid_argument "Dataset.add: label out of range")
    (fun () -> Dataset.add ds { Dataset.features = [| 1; 2 |]; label = 2 })

let test_dataset_split () =
  let ds = Dataset.create ~n_features:1 ~n_classes:2 in
  for i = 0 to 99 do
    Dataset.add ds { Dataset.features = [| i |]; label = i mod 2 }
  done;
  let train, test = Dataset.split ds ~rng:(Rng.create 1) ~train_fraction:0.8 in
  Alcotest.(check int) "train size" 80 (Dataset.length train);
  Alcotest.(check int) "test size" 20 (Dataset.length test);
  (* no sample lost or duplicated *)
  let seen = Hashtbl.create 100 in
  Dataset.iter (fun s -> Hashtbl.replace seen s.Dataset.features.(0) ()) train;
  Dataset.iter (fun s -> Hashtbl.replace seen s.Dataset.features.(0) ()) test;
  Alcotest.(check int) "union covers all" 100 (Hashtbl.length seen)

let test_dataset_project () =
  let ds = mk_dataset () in
  let projected = Dataset.project ds ~keep:[| 1 |] in
  Alcotest.(check int) "one feature" 1 (Dataset.n_features projected);
  Alcotest.(check int) "first sample keeps col 1" 0 (Dataset.get projected 0).Dataset.features.(0);
  Alcotest.(check int) "last sample keeps col 1" 2 (Dataset.get projected 4).Dataset.features.(0)

(* ---------------- Metrics ---------------- *)

let test_metrics_empty () =
  let ds = Dataset.create ~n_features:2 ~n_classes:3 in
  Alcotest.(check (float 1e-9)) "empty accuracy" 0.0
    (Metrics.accuracy_of ~predict:(fun _ -> 0) ds)

let test_metrics_evaluate () =
  let ds = mk_dataset () in
  let predict features = if features.(0) > 2 then 1 else 0 in
  Alcotest.(check (float 1e-9)) "perfect separator" 1.0 (Metrics.accuracy_of ~predict ds);
  let predict features = if features.(1) = 0 then 1 - features.(0) / 5 else features.(0) / 5 in
  Alcotest.(check (float 1e-9)) "three of five" 0.6 (Metrics.accuracy_of ~predict ds);
  Alcotest.check_raises "class out of range"
    (Invalid_argument "Metrics.accuracy_of: class out of range") (fun () ->
      ignore (Metrics.accuracy_of ~predict:(fun _ -> 2) ds))

let suite =
  [ ( "rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        QCheck_alcotest.to_alcotest prop_split_substreams_independent ] );
    ( "tensor",
      [ Alcotest.test_case "qmat mul matches float" `Quick test_qmat_mul_vec_matches_float ] );
    ( "dataset",
      [ Alcotest.test_case "basics" `Quick test_dataset_basics;
        Alcotest.test_case "validation" `Quick test_dataset_validation;
        Alcotest.test_case "split" `Quick test_dataset_split;
        Alcotest.test_case "project" `Quick test_dataset_project ] );
    ( "metrics",
      [ Alcotest.test_case "empty" `Quick test_metrics_empty;
        Alcotest.test_case "evaluate" `Quick test_metrics_evaluate ] ) ]
