(* Tests for batched invocation (DESIGN.md section 13): SoA kernel and
   per-slot path against the reference interpreter, per-slot trap
   containment under fault injection, batched tables and protected
   hooks, steady-state allocation, the kml batch kernels, and
   compile-time resource reports/budgets. *)

open Rmt

let now0 () = 0

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- Fixtures ---------------- *)

let nf = 6

(* A small trained+quantized MLP shared by the model-backed fixtures. *)
let make_qmlp () =
  let rng = Kml.Rng.create 17 in
  let ds = Kml.Dataset.create ~n_features:nf ~n_classes:4 in
  for _ = 1 to 128 do
    let features = Array.init nf (fun _ -> Kml.Rng.int rng 64) in
    Kml.Dataset.add ds { Kml.Dataset.features; label = features.(0) land 3 }
  done;
  let mlp = Kml.Mlp.train ~params:{ Kml.Mlp.default_params with epochs = 2 } ~rng ds in
  Kml.Quantize.Qmlp.of_mlp mlp

(* SoA-eligible program: straight-line, context + vmem + one CALL_ML. *)
let qmlp_program ~name =
  let b = Builder.create ~name ~vmem_size:nf () in
  let (_ : int) = Builder.add_model b ~n_features:nf in
  Builder.emit b (Insn.Vec_ld_ctxt (0, 10, nf));
  Builder.emit b (Insn.Call_ml (0, 0, nf));
  Builder.emit b (Insn.St_ctxt (64, 0));
  Builder.emit b Insn.Exit;
  Builder.finish b ()

(* Not SoA-eligible: maps and a helper call force the per-slot fallback. *)
let map_program ~name =
  let open Insn in
  Program.make ~name
    ~map_specs:[ { Map_store.kind = Map_store.Hash_map; capacity = 64 } ]
    [ Ld_ctxt_k (1, 3);
      Alu_imm (And, 1, 31);
      Ld_imm (2, 7);
      Map_update (0, 1, 2);
      Map_lookup (4, 0, 1);
      Mov (1, 4);
      Call Helper.abs_val;
      St_ctxt (5, 0);
      Rep (8, 1);
      Alu_imm (Add, 0, 1);
      Exit ]

(* The strength-reduction stream from the bench: 3 reducible ALU sites
   (pow2 Mul/Div/Mod on a masked nonnegative register) + 1 fast Rep. *)
let spec_program ~name =
  let open Insn in
  Program.make ~name
    [ Ld_imm (0, 0);
      Ld_imm (1, 0);
      Rep (16, 8);
      Alu_imm (And, 1, 63);
      Ld_ctxt (2, 1);
      Alu_imm (And, 2, 4095);
      Alu_imm (Mul, 2, 8);
      Alu_imm (Div, 2, 4);
      Alu_imm (Mod, 2, 32);
      Alu (Add, 0, 2);
      Alu_imm (Add, 1, 1);
      Exit ]

let install_exn control ?resource_budget ?model_names prog =
  match Control.install control ?resource_budget ?model_names prog with
  | Ok vm -> vm
  | Error e -> Alcotest.failf "install %s: %s" prog.Program.name e

let install_dut ?(program = qmlp_program) ?(model_names = [ "q" ]) () =
  let control = Control.create ~engine:Vm.Jit_compiled () in
  let (_ : Model_store.handle) =
    Control.register_model control ~name:"q" (Model_store.Qmlp (make_qmlp ()))
  in
  (control, install_exn control ~model_names (program ~name:"dut"))

(* Reference semantics: the guarded interpreter over a fresh link of
   [vm]'s program — its own maps, the same models — so reference runs
   cannot leak state into the run under test. *)
let reference vm =
  let l = Vm.loaded vm in
  let loaded =
    Loaded.link ~store:l.Loaded.store ~helpers:l.Loaded.helpers
      ~maps:(Array.map Map_store.create l.Loaded.prog.Program.map_specs)
      ~models:l.Loaded.models l.Loaded.prog
  in
  fun ctxt -> Interp.run loaded ~ctxt ~now:now0

let fill_slot ctxt s =
  for i = 0 to nf - 1 do
    Ctxt.set ctxt (10 + i) (((s + i) * 13) land 63)
  done

let dump ctxt = List.sort compare (Ctxt.fold (fun k v acc -> (k, v) :: acc) ctxt [])

(* ---------------- Batch vs reference ---------------- *)

let test_soa_scalar_equivalence () =
  let _control, vm = install_dut () in
  let run_ref = reference vm in
  Alcotest.(check bool)
    "program admits the SoA kernel" true
    (Jit.batch_eligible (Jit.compile (Vm.loaded vm)));
  let k = 7 (* deliberately not a multiple of the matmul slot tile *) in
  let b = Batch.create ~capacity:k in
  for s = 0 to k - 1 do
    fill_slot b.Batch.ctxts.(s) s
  done;
  Vm.invoke_batch vm b ~now:now0;
  for s = 0 to k - 1 do
    let ctxt = Ctxt.create () in
    fill_slot ctxt s;
    let o = run_ref ctxt in
    Alcotest.(check int) (Printf.sprintf "slot %d result" s) o.Interp.result b.Batch.results.(s);
    Alcotest.(check int) (Printf.sprintf "slot %d steps" s) o.Interp.steps b.Batch.steps.(s);
    Alcotest.(check int)
      (Printf.sprintf "slot %d denied" s)
      o.Interp.privacy_denied b.Batch.denied.(s);
    Alcotest.(check bool) (Printf.sprintf "slot %d no trap" s) true (b.Batch.traps.(s) = None);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "slot %d final context" s)
      (dump ctxt) (dump b.Batch.ctxts.(s))
  done

let test_batch_of_one_fallback_equivalence () =
  let _control, vm = install_dut ~program:map_program ~model_names:[] () in
  Alcotest.(check bool)
    "map program is not SoA-batchable" false
    (Jit.batch_eligible (Jit.compile (Vm.loaded vm)));
  let b = Batch.create ~capacity:1 in
  Ctxt.set b.Batch.ctxts.(0) 3 12;
  Vm.invoke_batch vm b ~now:now0;
  let ctxt = Ctxt.of_list [ (3, 12) ] in
  let o = reference vm ctxt in
  Alcotest.(check int) "result" o.Interp.result b.Batch.results.(0);
  Alcotest.(check int) "steps" o.Interp.steps b.Batch.steps.(0);
  Alcotest.(check (list (pair int int))) "final context" (dump ctxt) (dump b.Batch.ctxts.(0))

(* ---------------- Per-slot trap containment ---------------- *)

let test_trap_isolation_fault_injection () =
  let _control, vmb = install_dut () in
  let run_ref = reference vmb in
  let k = 8 in
  let b = Batch.create ~capacity:k in
  for s = 0 to k - 1 do
    fill_slot b.Batch.ctxts.(s) s
  done;
  let traps_before = Vm.traps vmb in
  (* An active plan forces the per-slot fallback loop, where each slot
     draws its own injection decision. *)
  Fault.with_plan ~seed:0xbad5 [ (Fault.Engine_trap, 0.5) ] (fun () ->
      Vm.invoke_batch vmb b ~now:now0);
  let trapped = ref 0 in
  for s = 0 to k - 1 do
    match b.Batch.traps.(s) with
    | Some Interp.Trap_injected ->
      incr trapped;
      Alcotest.(check int) (Printf.sprintf "slot %d zeroed result" s) 0 b.Batch.results.(s);
      Alcotest.(check int) (Printf.sprintf "slot %d zeroed steps" s) 0 b.Batch.steps.(s)
    | Some t -> Alcotest.failf "slot %d: unexpected trap %s" s (Interp.trap_message t)
    | None ->
      let ctxt = Ctxt.create () in
      fill_slot ctxt s;
      Alcotest.(check int)
        (Printf.sprintf "surviving slot %d result" s)
        (run_ref ctxt).Interp.result b.Batch.results.(s)
  done;
  Alcotest.(check bool) "some slots trapped" true (!trapped > 0);
  Alcotest.(check bool) "some slots survived" true (!trapped < k);
  Alcotest.(check int) "vm trap accounting" !trapped (Vm.traps vmb - traps_before)

let test_protected_hook_batch () =
  let control, vmb = install_dut () in
  let table =
    Control.create_table control ~name:"t" ~match_keys:[| 0 |] ~default:(Table.Run vmb)
  in
  Control.attach control ~hook:"h" table;
  let breaker =
    Control.protect control ~hook:"h" ~programs:[ "dut" ]
      ~fallback:(fun ctxt -> Ctxt.get ctxt 0 + 100)
      ()
  in
  let k = 4 in
  let b = Batch.create ~capacity:k in
  for s = 0 to k - 1 do
    fill_slot b.Batch.ctxts.(s) s;
    Ctxt.set b.Batch.ctxts.(s) 0 s
  done;
  (* Healthy path: learned results, breaker stays closed. *)
  Alcotest.(check bool) "dispatched" true (Control.fire_batch control ~hook:"h" b);
  for s = 0 to k - 1 do
    Alcotest.(check bool) (Printf.sprintf "slot %d learned" s) true (b.Batch.traps.(s) = None)
  done;
  Alcotest.(check bool) "breaker closed" true (Breaker.state breaker = Breaker.Closed);
  (* Every slot traps: each is served the stock fallback, the trap
     markers stay visible, and the breaker sees one failure per batch. *)
  Fault.with_plan ~seed:1 [ (Fault.Engine_trap, 1.0) ] (fun () ->
      Alcotest.(check bool) "dispatched under faults" true
        (Control.fire_batch control ~hook:"h" b));
  for s = 0 to k - 1 do
    Alcotest.(check int) (Printf.sprintf "slot %d fallback result" s) (s + 100)
      b.Batch.results.(s);
    Alcotest.(check bool)
      (Printf.sprintf "slot %d trap marker kept" s)
      true
      (b.Batch.traps.(s) = Some Interp.Trap_injected)
  done

(* ---------------- Steady-state allocation ---------------- *)

(* Same pattern as test_datapath: Gc.minor_words itself boxes a float, so
   a small measurement-noise allowance; real per-slot allocation would
   cost >= 2 words x 1000 x batch width. *)
let test_zero_alloc_soa_batch () =
  let _control, vmb = install_dut () in
  let b = Batch.create ~capacity:8 in
  for s = 0 to 7 do
    fill_slot b.Batch.ctxts.(s) s
  done;
  for _ = 1 to 100 do
    Vm.invoke_batch vmb b ~now:now0
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Vm.invoke_batch vmb b ~now:now0
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "SoA batch loop allocated %.0f minor words over 1k batches" delta

let test_zero_alloc_fallback_batch () =
  let _control, vmb = install_dut ~program:map_program ~model_names:[] () in
  let b = Batch.create ~capacity:8 in
  for s = 0 to 7 do
    Ctxt.set b.Batch.ctxts.(s) 3 (s * 3)
  done;
  for _ = 1 to 100 do
    Vm.invoke_batch vmb b ~now:now0
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Vm.invoke_batch vmb b ~now:now0
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "fallback batch loop allocated %.0f minor words over 1k batches" delta

(* ---------------- kml batch kernels ---------------- *)

let test_qmlp_predict_batch () =
  let q = make_qmlp () in
  let n = 13 (* exercises both the slot tile and its remainder loop *) in
  let features = Array.init (n * nf) (fun i -> (i * 29) land 63) in
  let out = Array.make n (-1) in
  Kml.Quantize.Qmlp.predict_batch q ~features ~n ~out;
  let f1 = Array.make nf 0 in
  for s = 0 to n - 1 do
    Array.blit features (s * nf) f1 0 nf;
    Alcotest.(check int)
      (Printf.sprintf "slot %d class" s)
      (Kml.Quantize.Qmlp.predict q f1) out.(s)
  done

let test_tree_predict_batch () =
  let rng = Kml.Rng.create 7 in
  let samples =
    List.init 300 (fun _ ->
        let a = Kml.Rng.int rng 100 and b = Kml.Rng.int rng 100 in
        { Kml.Dataset.features = [| a; b |]; label = (if a + b > 100 then 1 else 0) })
  in
  let ds = Kml.Dataset.of_samples ~n_features:2 ~n_classes:2 samples in
  let tree = Kml.Decision_tree.train ds in
  let n = 13 in
  let features = Array.init (n * 2) (fun i -> (i * 41) land 127) in
  let out = Array.make n (-1) in
  Kml.Decision_tree.predict_batch tree ~features ~n ~out;
  let f1 = Array.make 2 0 in
  for s = 0 to n - 1 do
    Array.blit features (s * 2) f1 0 2;
    Alcotest.(check int)
      (Printf.sprintf "slot %d class" s)
      (Kml.Decision_tree.predict tree f1) out.(s)
  done

(* ---------------- Batched table lookup ---------------- *)

let test_table_lookup_batch () =
  let _control, vm = install_dut () in
  let run_ref = reference vm in
  let tb = Table.create ~name:"t" ~match_keys:[| 0 |] ~default:(Table.Const 5) in
  let (_ : Table.entry_id) = Table.insert tb ~patterns:[| Table.Eq 1 |] (Table.Run vm) in
  let check_case label keys =
    let k = Array.length keys in
    let b = Batch.create ~capacity:k in
    for s = 0 to k - 1 do
      fill_slot b.Batch.ctxts.(s) s;
      Ctxt.set b.Batch.ctxts.(s) 0 keys.(s)
    done;
    Table.lookup_batch tb b ~now:now0;
    for s = 0 to k - 1 do
      let ctxt = Ctxt.create () in
      fill_slot ctxt s;
      Ctxt.set ctxt 0 keys.(s);
      Alcotest.(check int)
        (Printf.sprintf "%s slot %d" label s)
        (if keys.(s) = 1 then (run_ref ctxt).Interp.result else 5)
        b.Batch.results.(s)
    done
  in
  (* Uniform batch: every slot lands on the same Run entry, taking the
     single-invoke_batch path; mixed batch dispatches per slot. *)
  check_case "uniform" [| 1; 1; 1; 1 |];
  check_case "mixed" [| 1; 9; 1; 2 |];
  Alcotest.(check int) "hit accounting" 8 (Table.hits tb);
  Alcotest.(check int) "default accounting" 2 (Table.default_hits tb)

(* ---------------- Resource reports and budgets ---------------- *)

let test_resource_report () =
  let prog = spec_program ~name:"spec" in
  let helpers = Helper.with_defaults () in
  let report =
    match Verifier.check ~helpers ~model_costs:[||] prog with
    | Ok r -> r
    | Error v -> Alcotest.failf "verify: %s" (Verifier.violation_to_string v)
  in
  let r = Resource.of_report report prog in
  Alcotest.(check string) "program name" "spec" r.Resource.program;
  Alcotest.(check int) "worst-case steps" 132 r.Resource.steps;
  Alcotest.(check bool) "fits the default budget" true
    (Resource.violations r Resource.default_budget = []);
  let tiny = { Resource.default_budget with Resource.max_steps = 1 } in
  Alcotest.(check bool) "violations reported" true (Resource.violations r tiny <> []);
  let json = Resource.to_json r in
  Alcotest.(check bool) "json carries the name" true
    (contains json "\"program\":\"spec\"");
  (* Both engines give the program one meaning.  [Mul] by 8 is the case
     a power-of-two-to-shift rewrite gets wrong: eval_alu shifts by even
     amounts only, so a shift by 3 would multiply by 4. *)
  let run engine =
    let vm = install_exn (Control.create ~engine ()) prog in
    let b = Batch.create ~capacity:1 in
    for k = 0 to 63 do
      Ctxt.set b.Batch.ctxts.(0) k ((3 * k) + 1)
    done;
    Vm.invoke_batch vm b ~now:now0;
    (b.Batch.results.(0), b.Batch.steps.(0))
  in
  Alcotest.(check (pair int int)) "interpreter" (240, 132) (run Vm.Interpreted);
  Alcotest.(check (pair int int)) "jit agrees with the interpreter" (240, 132)
    (run Vm.Jit_compiled)

let test_install_resource_budget () =
  let control = Control.create () in
  let prog = spec_program ~name:"spec" in
  (match
     Control.install control
       ~resource_budget:{ Resource.default_budget with Resource.max_steps = 3 }
       prog
   with
  | Error e ->
    Alcotest.(check bool) "budget error names the cause" true
      (contains e "resource budget")
  | Ok _ -> Alcotest.fail "over-budget install must be refused");
  Alcotest.(check bool) "rejected install leaves no report" true
    (Control.resource_report control "spec" = None);
  let (_ : Vm.t) = install_exn control prog in
  (match Control.resource_report control "spec" with
  | Some r ->
    Alcotest.(check int) "report retained post-install" 132 r.Resource.steps
  | None -> Alcotest.fail "report must be retained for installed programs")

(* ---------------- Mixed-action batched lookup ---------------- *)

(* A batch whose slots resolve to different actions (Const default, Run,
   Host) cannot take the uniform SoA path; every slot must still get
   exactly its own action's result. *)
let test_lookup_batch_mixed_actions () =
  let control, vmb = install_dut () in
  let run_ref = reference vmb in
  let table =
    Control.create_table control ~name:"mixed" ~match_keys:[| 0 |]
      ~default:(Table.Const 7)
  in
  let (_ : Table.entry_id) = Table.insert table ~patterns:[| Table.Eq 1 |] (Table.Run vmb) in
  let (_ : Table.entry_id) =
    Table.insert table ~patterns:[| Table.Eq 2 |]
      (Table.Host (fun ctxt -> Ctxt.get ctxt 11 + 1000))
  in
  let k = 6 in
  let b = Batch.create ~capacity:k in
  for s = 0 to k - 1 do
    fill_slot b.Batch.ctxts.(s) s;
    Ctxt.set b.Batch.ctxts.(s) 0 (s mod 3) (* 0 -> Const, 1 -> Run, 2 -> Host *)
  done;
  Batch.set_n b k;
  Table.lookup_batch table b ~now:now0;
  for s = 0 to k - 1 do
    let ctxt = Ctxt.create () in
    fill_slot ctxt s;
    Ctxt.set ctxt 0 (s mod 3);
    let expected =
      match s mod 3 with
      | 0 -> 7
      | 1 -> (run_ref ctxt).Interp.result
      | _ -> Ctxt.get ctxt 11 + 1000
    in
    Alcotest.(check int) (Printf.sprintf "slot %d mixed batch = per-slot action" s) expected
      b.Batch.results.(s);
    Alcotest.(check bool) (Printf.sprintf "slot %d clean" s) true (b.Batch.traps.(s) = None)
  done

(* ---------------- Open breaker serves whole batches ---------------- *)

let test_fire_batch_breaker_open_fallback () =
  let control, vmb = install_dut () in
  Control.set_clock control now0;
  let table =
    Control.create_table control ~name:"t" ~match_keys:[| 0 |] ~default:(Table.Run vmb)
  in
  Control.attach control ~hook:"h" table;
  let breaker =
    Control.protect control ~hook:"h" ~programs:[ "dut" ]
      ~fallback:(fun ctxt -> Ctxt.get ctxt 0 + 500)
      ()
  in
  let k = 5 in
  let b = Batch.create ~capacity:k in
  for s = 0 to k - 1 do
    fill_slot b.Batch.ctxts.(s) s;
    Ctxt.set b.Batch.ctxts.(s) 0 s;
    (* Stale slot metadata the open-breaker path must clear. *)
    b.Batch.traps.(s) <- Some Interp.Trap_fuel;
    b.Batch.steps.(s) <- 99;
    b.Batch.denied.(s) <- 99
  done;
  Batch.set_n b k;
  Breaker.trip breaker ~now:0;
  let before = Pipeline.fallback_served (Control.pipeline control) ~hook:"h" in
  Alcotest.(check bool) "dispatched" true (Control.fire_batch control ~hook:"h" b);
  for s = 0 to k - 1 do
    Alcotest.(check int) (Printf.sprintf "slot %d stock fallback" s) (s + 500)
      b.Batch.results.(s);
    Alcotest.(check bool) (Printf.sprintf "slot %d trap cleared" s) true
      (b.Batch.traps.(s) = None);
    Alcotest.(check int) (Printf.sprintf "slot %d steps cleared" s) 0 b.Batch.steps.(s);
    Alcotest.(check int) (Printf.sprintf "slot %d denials cleared" s) 0 b.Batch.denied.(s)
  done;
  Alcotest.(check int) "fallback_served counts every slot" (before + k)
    (Pipeline.fallback_served (Control.pipeline control) ~hook:"h");
  Alcotest.(check bool) "breaker still open" true (Breaker.state breaker = Breaker.Open)

let suite =
  [ ( "batch",
    [ Alcotest.test_case "SoA kernel matches scalar invokes" `Quick test_soa_scalar_equivalence;
      Alcotest.test_case "batch-of-1 fallback matches invoke" `Quick
        test_batch_of_one_fallback_equivalence;
      Alcotest.test_case "trap in slot k isolates" `Quick test_trap_isolation_fault_injection;
      Alcotest.test_case "protected hook serves per-slot fallback" `Quick
        test_protected_hook_batch;
      Alcotest.test_case "SoA batch loop is allocation-free" `Quick test_zero_alloc_soa_batch;
      Alcotest.test_case "fallback batch loop is allocation-free" `Quick
        test_zero_alloc_fallback_batch;
      Alcotest.test_case "qmlp predict_batch = predict" `Quick test_qmlp_predict_batch;
      Alcotest.test_case "tree predict_batch = predict" `Quick test_tree_predict_batch;
      Alcotest.test_case "table lookup_batch = lookup" `Quick test_table_lookup_batch;
      Alcotest.test_case "resource report counts" `Quick test_resource_report;
      Alcotest.test_case "install enforces resource budget" `Quick
        test_install_resource_budget;
      Alcotest.test_case "mixed-action lookup_batch = scalar" `Quick
        test_lookup_batch_mixed_actions;
      Alcotest.test_case "open breaker serves whole batches" `Quick
        test_fire_batch_breaker_open_fallback ] ) ]
