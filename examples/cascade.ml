(* Model cascading with TAIL_CALL (paper §3.2: "Models can also be cascaded
   using TAIL_CALL when needed").

   A classic inference-cost optimization: a cheap first-stage model handles
   the easy cases; only uncertain inputs pay for the expensive second
   stage.  Here stage 1 is an integer linear scorer expressed directly in
   the ML ISA (RMT_MAT_MUL over a constant-pool weight vector); when its
   score margin is small it TAIL_CALLs into a second program that consults
   a full decision tree via CALL_ML.

   Run with: dune exec examples/cascade.exe *)

let n_features = 4

(* Stage 1: score = w.x (Q16.16); |score| >= margin decides immediately,
   otherwise escalate. *)
let stage1 ~margin_raw =
  let open Rmt in
  let b = Builder.create ~name:"stage1_linear" ~vmem_size:8 () in
  let w =
    Program.const_matrix ~name:"w" ~rows:1 ~cols:n_features
      (Array.map Kml.Fixed.of_float [| 1.0; -1.0; 0.5; -0.5 |])
  in
  let wid = Builder.add_const b w in
  let escalate = Builder.fresh_label b in
  let positive = Builder.fresh_label b in
  let _slot = Builder.add_prog_slot b in
  Builder.emit b (Insn.Vec_ld_ctxt (0, 0, n_features));
  Builder.emit b (Insn.Vec_i2f (0, n_features));
  Builder.emit b (Insn.Mat_mul (n_features, wid, 0));
  Builder.emit b (Insn.Vec_ld_reg (1, n_features)); (* r1 <- raw score *)
  (* escalate when -margin < score < margin *)
  Builder.jump_if b Insn.Ge ~reg:1 ~imm:margin_raw ~target:positive;
  Builder.jump_if b Insn.Gt ~reg:1 ~imm:(-margin_raw) ~target:escalate;
  Builder.emit b (Insn.Ld_imm (0, 0)); (* confidently negative *)
  Builder.emit b Insn.Exit;
  Builder.place b positive;
  Builder.emit b (Insn.Ld_imm (0, 1)); (* confidently positive *)
  Builder.emit b Insn.Exit;
  Builder.place b escalate;
  Builder.emit b (Insn.Tail_call 0);
  Builder.finish b ()

(* Stage 2: the expensive model. *)
let stage2 () =
  let open Rmt in
  let b = Builder.create ~name:"stage2_tree" ~vmem_size:8 () in
  let _slot = Builder.add_model b ~n_features in
  Builder.emit b (Insn.Vec_ld_ctxt (0, 0, n_features));
  Builder.emit b (Insn.Call_ml (0, 0, n_features));
  Builder.emit b Insn.Exit;
  Builder.finish b ()

let () =
  let rng = Kml.Rng.create 5 in
  (* Ground truth: sign of w.x, but with a noisy band around the boundary
     that the linear stage cannot resolve. *)
  let truth f = if f.(0) - f.(1) + ((f.(2) - f.(3)) / 2) > 0 then 1 else 0 in
  let ds = Kml.Dataset.create ~n_features ~n_classes:2 in
  for _ = 1 to 2000 do
    let f = Array.init n_features (fun _ -> Kml.Rng.int rng 41 - 20) in
    Kml.Dataset.add ds { Kml.Dataset.features = f; label = truth f }
  done;
  let tree = Kml.Decision_tree.train ds in
  let control = Rmt.Control.create () in
  let (_ : Rmt.Model_store.handle) =
    Rmt.Control.register_model control ~name:"tree" (Rmt.Model_store.Tree tree)
  in
  let margin_raw = Kml.Fixed.to_raw (Kml.Fixed.of_int 6) in
  let s1 = Result.get_ok (Rmt.Control.install control (stage1 ~margin_raw)) in
  let (_ : Rmt.Vm.t) =
    Result.get_ok (Rmt.Control.install control ~model_names:[ "tree" ] (stage2 ()))
  in
  (match Rmt.Control.bind_tail_call control ~caller:"stage1_linear" ~slot:0
           ~callee:"stage2_tree" with
   | Ok () -> ()
   | Error e -> failwith e);
  Format.printf "cascade installed: stage1_linear --TAIL_CALL--> stage2_tree@.@.";
  let models = Rmt.Control.models control in
  let tree_handle = Option.get (Rmt.Model_store.find models "tree") in
  let correct = ref 0 and total = 2000 in
  let escalations_before = Rmt.Model_store.invocations models tree_handle in
  let b = Rmt.Batch.create ~capacity:1 in
  for _ = 1 to total do
    let f = Array.init n_features (fun _ -> Kml.Rng.int rng 41 - 20) in
    let ctxt = Rmt.Ctxt.create () in
    Array.iteri (fun i v -> Rmt.Ctxt.set ctxt i v) f;
    b.Rmt.Batch.ctxts.(0) <- ctxt;
    Rmt.Vm.invoke_batch s1 b ~now:(fun () -> 0);
    if b.Rmt.Batch.results.(0) = truth f then incr correct
  done;
  let escalations = Rmt.Model_store.invocations models tree_handle - escalations_before in
  Format.printf "inputs:        %d@." total;
  Format.printf "accuracy:      %.2f%%@." (100.0 *. float_of_int !correct /. float_of_int total);
  Format.printf "escalated:     %d (%.1f%%) — only these paid for the tree@." escalations
    (100.0 *. float_of_int escalations /. float_of_int total);
  Format.printf
    "@.The linear stage resolves confident inputs in a handful of instructions;@.";
  Format.printf "the TAIL_CALL cascade reserves CALL_ML for the ambiguous band.@."
