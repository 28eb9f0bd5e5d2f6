(* Tests for the RMT virtual machine: ISA semantics, context, maps,
   verifier, interpreter, JIT (differential), assembler round-trip. *)

let helpers = Rmt.Helper.with_defaults ()

let install_raw ?(models = []) ?(model_names = []) prog =
  let control = Rmt.Control.create () in
  List.iter
    (fun (name, model) ->
      let (_ : Rmt.Model_store.handle) = Rmt.Control.register_model control ~name model in
      ())
    models;
  match Rmt.Control.install control ~model_names prog with
  | Ok vm -> (control, vm)
  | Error e -> Alcotest.failf "install failed: %s" e

let run_prog ?ctxt ?engine prog =
  let control = Rmt.Control.create ?engine () in
  match Rmt.Control.install control prog with
  | Ok vm ->
    let ctxt = match ctxt with Some c -> c | None -> Rmt.Ctxt.create () in
    (Single.run vm ~ctxt ~now:(fun () -> 0)).Rmt.Interp.result
  | Error e -> Alcotest.failf "install failed: %s" e

let prog name code = Rmt.Program.make ~name code

(* ---------------- ALU semantics ---------------- *)

let test_alu_semantics () =
  let open Rmt.Insn in
  List.iter
    (fun (op, a, b, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "%s %d %d" (alu_name op) a b)
        expected (eval_alu op a b))
    [ (Add, 3, 4, 7);
      (Sub, 3, 4, -1);
      (Mul, 3, 4, 12);
      (Div, 12, 4, 3);
      (Div, 12, 0, 0);
      (Div, -7, 2, -3);
      (Mod, 12, 5, 2);
      (Mod, 12, 0, 0);
      (And, 0b1100, 0b1010, 0b1000);
      (Or, 0b1100, 0b1010, 0b1110);
      (Xor, 0b1100, 0b1010, 0b0110);
      (Shl, 1, 4, 16);
      (Shr, -16, 2, -4);
      (Min, 3, -5, -5);
      (Max, 3, -5, 3) ]

let test_cond_semantics () =
  let open Rmt.Insn in
  Alcotest.(check bool) "eq" true (eval_cond Eq 5 5);
  Alcotest.(check bool) "ne" true (eval_cond Ne 5 6);
  Alcotest.(check bool) "lt" true (eval_cond Lt (-1) 0);
  Alcotest.(check bool) "le" true (eval_cond Le 5 5);
  Alcotest.(check bool) "gt" false (eval_cond Gt 5 5);
  Alcotest.(check bool) "ge" true (eval_cond Ge 5 5)

(* ---------------- Ctxt ---------------- *)

let test_ctxt_basics () =
  let ctxt = Rmt.Ctxt.create () in
  Alcotest.(check int) "absent reads 0" 0 (Rmt.Ctxt.get ctxt 5);
  Rmt.Ctxt.set ctxt 5 42;
  Alcotest.(check int) "set/get" 42 (Rmt.Ctxt.get ctxt 5);
  Rmt.Ctxt.set ctxt 200 7;
  Alcotest.(check int) "sparse key" 7 (Rmt.Ctxt.get ctxt 200);
  Alcotest.(check int) "reads counted" 3 (Rmt.Ctxt.reads ctxt);
  Alcotest.check_raises "negative key" (Invalid_argument "Ctxt.set: negative key") (fun () ->
      Rmt.Ctxt.set ctxt (-1) 0)

(* ---------------- Map store ---------------- *)

let test_map_array () =
  let m = Rmt.Map_store.create { Rmt.Map_store.kind = Array_map; capacity = 4 } in
  Rmt.Map_store.update m ~key:2 ~value:9;
  Alcotest.(check int) "get" 9 (Rmt.Map_store.lookup m 2);
  Alcotest.(check int) "oob read 0" 0 (Rmt.Map_store.lookup m 99);
  Rmt.Map_store.update m ~key:99 ~value:1;
  Alcotest.(check int) "oob write dropped" 0 (Rmt.Map_store.lookup m 99)

let test_map_hash_capacity () =
  let m = Rmt.Map_store.create { Rmt.Map_store.kind = Hash_map; capacity = 2 } in
  Rmt.Map_store.update m ~key:1 ~value:1;
  Rmt.Map_store.update m ~key:2 ~value:2;
  Rmt.Map_store.update m ~key:3 ~value:3;
  Alcotest.(check int) "beyond capacity dropped" 0 (Rmt.Map_store.lookup m 3);
  Alcotest.(check int) "existing key updatable" 2 (Rmt.Map_store.size m);
  Rmt.Map_store.update m ~key:1 ~value:11;
  Alcotest.(check int) "update in place" 11 (Rmt.Map_store.lookup m 1);
  Rmt.Map_store.delete m 1;
  Rmt.Map_store.update m ~key:3 ~value:3;
  Alcotest.(check int) "room after delete" 3 (Rmt.Map_store.lookup m 3)

let test_map_lru_eviction () =
  let m = Rmt.Map_store.create { Rmt.Map_store.kind = Lru_hash_map; capacity = 3 } in
  Rmt.Map_store.update m ~key:1 ~value:1;
  Rmt.Map_store.update m ~key:2 ~value:2;
  Rmt.Map_store.update m ~key:3 ~value:3;
  (* touch 1 so 2 becomes LRU *)
  ignore (Rmt.Map_store.lookup m 1);
  Rmt.Map_store.update m ~key:4 ~value:4;
  Alcotest.(check int) "2 evicted" 0 (Rmt.Map_store.lookup m 2);
  Alcotest.(check int) "1 kept" 1 (Rmt.Map_store.lookup m 1);
  Alcotest.(check int) "4 present" 4 (Rmt.Map_store.lookup m 4);
  Alcotest.(check int) "size" 3 (Rmt.Map_store.size m)

let test_map_ring () =
  let m = Rmt.Map_store.create { Rmt.Map_store.kind = Ring_buffer; capacity = 3 } in
  List.iter (Rmt.Map_store.push m) [ 1; 2; 3; 4 ];
  Alcotest.(check (array int)) "oldest dropped" [| 2; 3; 4 |] (Rmt.Map_store.ring_contents m);
  Alcotest.check_raises "no update on ring"
    (Invalid_argument "Map_store.update: ring buffers use push") (fun () ->
      Rmt.Map_store.update m ~key:0 ~value:0)

let prop_lru_never_exceeds_capacity =
  QCheck2.Test.make ~name:"lru map size <= capacity" ~count:200
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 60) (int_range 0 20)))
    (fun (cap, keys) ->
      let m = Rmt.Map_store.create { Rmt.Map_store.kind = Lru_hash_map; capacity = cap } in
      List.iter (fun k -> Rmt.Map_store.update m ~key:k ~value:k) keys;
      Rmt.Map_store.size m <= cap)

(* ---------------- Verifier rejections ---------------- *)

let string_contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_rejected name program pattern =
  let model_costs = Array.map (fun _ -> Kml.Model_cost.zero) program.Rmt.Program.model_arity in
  match Rmt.Verifier.check ~helpers ~model_costs program with
  | Ok _ -> Alcotest.failf "%s: expected rejection" name
  | Error v ->
    let msg = Rmt.Verifier.violation_to_string v in
    if not (string_contains msg pattern) then
      Alcotest.failf "%s: wrong violation %S (wanted substring %S)" name msg pattern

let test_verifier_rejects () =
  let open Rmt.Insn in
  let reject name code pattern = check_rejected name (prog name code) pattern in
  reject "empty" [] "empty";
  reject "fall off end" [ Ld_imm (0, 1) ] "fall off";
  reject "uninitialized read" [ Mov (0, 1); Exit ] "uninitialized";
  reject "exit needs r0" [ Exit ] "uninitialized";
  reject "backward jump impossible via offsets" [ Jmp (-2); Ld_imm (0, 0); Exit ] "backward";
  reject "jump out of range" [ Ld_imm (0, 0); Jmp 5; Exit ] "out of range";
  reject "bad map slot" [ Ld_imm (1, 0); Map_lookup (0, 0, 1); Exit ] "undeclared map";
  reject "bad helper" [ Call 999; Exit ] "unknown helper";
  reject "bad model" [ Call_ml (0, 0, 4); Exit ] "undeclared model";
  reject "bad rep" [ Rep (0, 1); Ld_imm (0, 0); Exit ] "invalid rep";
  reject "rep body out of code" [ Ld_imm (0, 0); Rep (2, 5); Exit ] "invalid rep";
  reject "clobbered helper args"
    [ Ld_imm (1, 1); Call Rmt.Helper.abs_val; Mov (2, 1); Mov (0, 2); Exit ]
    "uninitialized"

let test_verifier_rejects_privacy () =
  let open Rmt.Insn in
  let p =
    prog "agg" [ Ld_imm (1, 0); Ld_imm (2, 4); Call Rmt.Helper.ctxt_sum_range; Exit ]
  in
  check_rejected "privacy budget required" p "privacy"

let test_verifier_vmem_bounds () =
  let open Rmt.Insn in
  let p =
    Rmt.Program.make ~name:"v" ~vmem_size:4 [ Vec_ld_ctxt (2, 0, 4); Ld_imm (0, 0); Exit ]
  in
  check_rejected "vmem oob" p "out of bounds"

let test_verifier_step_budget () =
  let open Rmt.Insn in
  (* nested reps: 4096 * 4096 > 1e6 *)
  let p =
    prog "loopy"
      [ Rep (4096, 3); Rep (4096, 1); Ld_imm (1, 0); Ld_imm (0, 0); Exit ]
  in
  check_rejected "steps exceeded" p "steps"

let test_verifier_accepts_and_reports () =
  let open Rmt.Insn in
  let p =
    prog "ok"
      [ Ld_imm (1, 10);
        Ld_imm (2, 0);
        Rep (10, 1);
        Alu_imm (Add, 2, 3);
        Mov (0, 2);
        Exit ]
  in
  match Rmt.Verifier.check ~helpers ~model_costs:[||] p with
  | Error v -> Alcotest.failf "unexpected rejection: %s" (Rmt.Verifier.violation_to_string v)
  | Ok report ->
    (* 2 + 1 (rep) + 10 (body) + 2 = 15 *)
    Alcotest.(check int) "worst case steps" 15 report.Rmt.Verifier.worst_case_steps;
    Alcotest.(check bool) "no privacy" false report.Rmt.Verifier.uses_privacy

(* ---------------- Interpreter semantics ---------------- *)

let test_interp_arith_program () =
  let open Rmt.Insn in
  (* r0 = (7 * 6) - 2 *)
  let p =
    prog "arith"
      [ Ld_imm (1, 7); Alu_imm (Mul, 1, 6); Alu_imm (Sub, 1, 2); Mov (0, 1); Exit ]
  in
  Alcotest.(check int) "result" 40 (run_prog p)

let test_interp_branches () =
  let open Rmt.Insn in
  (* r0 = if ctxt[0] > 5 then 1 else 2 *)
  let p =
    prog "br"
      [ Ld_ctxt_k (1, 0);
        Jcond_imm (Gt, 1, 5, 2);
        Ld_imm (0, 2);
        Exit;
        Ld_imm (0, 1);
        Exit ]
  in
  let ctxt = Rmt.Ctxt.of_list [ (0, 9) ] in
  Alcotest.(check int) "taken" 1 (run_prog ~ctxt p);
  let ctxt = Rmt.Ctxt.of_list [ (0, 3) ] in
  Alcotest.(check int) "not taken" 2 (run_prog ~ctxt p)

let test_interp_rep_loop () =
  let open Rmt.Insn in
  (* sum 1..10 via rep *)
  let p =
    prog "sum"
      [ Ld_imm (1, 0);
        Ld_imm (2, 0);
        Rep (10, 2);
        Alu_imm (Add, 2, 1);
        Alu (Add, 1, 2);
        Mov (0, 1);
        Exit ]
  in
  (* body: r2 += 1; r1 += r2  => r1 = 1+2+..+10 = 55 *)
  Alcotest.(check int) "sum" 55 (run_prog p)

let test_interp_maps () =
  let open Rmt.Insn in
  let p =
    Rmt.Program.make ~name:"maps"
      ~map_specs:[ { Rmt.Map_store.kind = Hash_map; capacity = 16 } ]
      [ Ld_imm (1, 7);
        Ld_imm (2, 100);
        Map_update (0, 1, 2);
        Map_lookup (3, 0, 1);
        Mov (0, 3);
        Exit ]
  in
  Alcotest.(check int) "map roundtrip" 100 (run_prog p)

let test_interp_helper_call () =
  let open Rmt.Insn in
  let p = prog "abs" [ Ld_imm (1, -42); Call Rmt.Helper.abs_val; Exit ] in
  Alcotest.(check int) "abs" 42 (run_prog p)

let test_interp_guardrail () =
  let open Rmt.Insn in
  let p =
    Rmt.Program.make ~name:"guarded"
      ~capabilities:[ Rmt.Program.Guarded { lo = 0; hi = 10 } ]
      [ Ld_imm (0, 99); Exit ]
  in
  Alcotest.(check int) "clamped" 10 (run_prog p)

let test_interp_tail_call () =
  let open Rmt.Insn in
  let control = Rmt.Control.create () in
  let callee = prog "callee" [ Ld_imm (0, 7); Exit ] in
  let caller =
    Rmt.Program.make ~name:"caller" ~n_prog_slots:1 [ Tail_call 0 ]
  in
  let (_ : Rmt.Vm.t) = Result.get_ok (Rmt.Control.install control callee) in
  let caller_vm = Result.get_ok (Rmt.Control.install control caller) in
  (match Rmt.Control.bind_tail_call control ~caller:"caller" ~slot:0 ~callee:"callee" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let outcome = Single.run caller_vm ~ctxt:(Rmt.Ctxt.create ()) ~now:(fun () -> 0) in
  Alcotest.(check int) "tail call result" 7 outcome.Rmt.Interp.result;
  (* unbound slot falls back to 0 *)
  let caller2 = Rmt.Program.make ~name:"caller2" ~n_prog_slots:1 [ Tail_call 0 ] in
  let vm2 = Result.get_ok (Rmt.Control.install control caller2) in
  Alcotest.(check int) "unbound tail call" 0
    (Single.run vm2 ~ctxt:(Rmt.Ctxt.create ()) ~now:(fun () -> 0)).Rmt.Interp.result

let test_interp_vector_ml_isa () =
  let open Rmt.Insn in
  (* y = relu(W x + b); r0 = argmax y, expressed purely in the ML ISA.
     W = [[1, -1]; [2, 1]], b = [0.5; -4], x = ctxt (2, 3). *)
  let w =
    Rmt.Program.const_matrix ~name:"w" ~rows:2 ~cols:2
      (Array.map Kml.Fixed.of_float [| 1.0; -1.0; 2.0; 1.0 |])
  in
  let b =
    Rmt.Program.const_vector ~name:"b" (Array.map Kml.Fixed.of_float [| 0.5; -4.0 |])
  in
  let p =
    Rmt.Program.make ~name:"mlp_layer" ~vmem_size:8 ~consts:[ w; b ]
      [ Vec_ld_ctxt (0, 0, 2);
        Vec_i2f (0, 2);
        Mat_mul (2, 0, 0);
        Vec_add_const (2, 1);
        Vec_relu (2, 2);
        Vec_argmax (0, 2, 2);
        Exit ]
  in
  (* x = (2,3): Wx = (-1, 7); +b = (-0.5, 3); relu = (0, 3); argmax = 1 *)
  let ctxt = Rmt.Ctxt.of_list [ (0, 2); (1, 3) ] in
  Alcotest.(check int) "argmax" 1 (run_prog ~ctxt p)

let test_interp_call_ml () =
  let open Rmt.Insn in
  let model =
    Rmt.Model_store.Fn
      { n_features = 3;
        cost = Kml.Model_cost.zero;
        f = (fun features -> if features.(0) + features.(1) > features.(2) then 1 else 0) }
  in
  let p =
    Rmt.Program.make ~name:"ml" ~vmem_size:4 ~model_arity:[ 3 ]
      [ Vec_ld_ctxt (0, 0, 3); Call_ml (0, 0, 3); Exit ]
  in
  let _control, vm = install_raw ~models:[ ("m", model) ] ~model_names:[ "m" ] p in
  let ctxt = Rmt.Ctxt.of_list [ (0, 2); (1, 3); (2, 4) ] in
  Alcotest.(check int) "model fires" 1
    (Single.run vm ~ctxt ~now:(fun () -> 0)).Rmt.Interp.result

(* ---------------- Differential: interpreter = JIT ---------------- *)

(* Random verified programs over a restricted but representative subset of
   the ISA; any accepted program must produce identical results and step
   counts under both engines. *)
let random_program rng =
  let open Rmt.Insn in
  let len = 4 + Kml.Rng.int rng 12 in
  let code = ref [] in
  let n_emitted = ref 0 in
  let emit insn =
    code := insn :: !code;
    incr n_emitted
  in
  for i = 0 to len - 1 do
    let remaining = len - i in
    match Kml.Rng.int rng 8 with
    | 0 -> emit (Ld_imm (Kml.Rng.int rng 8, Kml.Rng.int rng 200 - 100))
    | 1 -> emit (Ld_ctxt_k (Kml.Rng.int rng 8, Kml.Rng.int rng 8))
    | 2 ->
      let ops = [| Add; Sub; Mul; Div; Mod; And; Or; Xor; Min; Max |] in
      emit (Alu_imm (ops.(Kml.Rng.int rng (Array.length ops)), Kml.Rng.int rng 8,
                     Kml.Rng.int rng 64 - 32))
    | 3 -> emit (St_ctxt (Kml.Rng.int rng 8, Kml.Rng.int rng 8))
    | 4 when remaining > 2 ->
      emit (Jcond_imm ([| Eq; Ne; Lt; Le; Gt; Ge |].(Kml.Rng.int rng 6),
                       Kml.Rng.int rng 8, Kml.Rng.int rng 16,
                       1 + Kml.Rng.int rng (remaining - 2)))
    | 5 when remaining > 2 ->
      let body = 1 + Kml.Rng.int rng (Stdlib.min 3 (remaining - 2)) in
      emit (Rep (1 + Kml.Rng.int rng 5, body))
    | 6 -> emit (Mov (Kml.Rng.int rng 8, Kml.Rng.int rng 8))
    | _ -> emit (Alu ([| Add; Sub; Mul |].(Kml.Rng.int rng 3), Kml.Rng.int rng 8,
                      Kml.Rng.int rng 8))
  done;
  (* Initialize all 8 working registers up front so dataflow passes, and
     guarantee termination with an explicit exit. *)
  let prelude = List.init 8 (fun r -> Ld_imm (r, r)) in
  Rmt.Program.make ~name:"fuzz" (prelude @ List.rev !code @ [ Mov (0, 1); Exit ])

let prop_interp_equals_jit =
  QCheck2.Test.make ~name:"interpreter = jit on random verified programs" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Kml.Rng.create seed in
      let program = random_program rng in
      match Rmt.Verifier.check ~helpers ~model_costs:[||] program with
      | Error _ -> QCheck2.assume_fail ()
      | Ok _ ->
        let ctxt_bindings = List.init 8 (fun k -> (k, Kml.Rng.int rng 100 - 50)) in
        let run engine =
          let control = Rmt.Control.create ~engine () in
          match Rmt.Control.install control program with
          | Ok vm ->
            let ctxt = Rmt.Ctxt.of_list ctxt_bindings in
            let outcome = Single.run vm ~ctxt ~now:(fun () -> 0) in
            (outcome.Rmt.Interp.result, outcome.Rmt.Interp.steps,
             Array.init 8 (Rmt.Ctxt.get ctxt))
          | Error e -> Alcotest.failf "install: %s" e
        in
        run Rmt.Vm.Interpreted = run Rmt.Vm.Jit_compiled)

let prop_verified_programs_terminate =
  QCheck2.Test.make ~name:"verified programs stay within the step bound" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Kml.Rng.create seed in
      let program = random_program rng in
      match Rmt.Verifier.check ~helpers ~model_costs:[||] program with
      | Error _ -> QCheck2.assume_fail ()
      | Ok report ->
        let control = Rmt.Control.create ~engine:Rmt.Vm.Interpreted () in
        (match Rmt.Control.install control program with
         | Ok vm ->
           let outcome = Single.run vm ~ctxt:(Rmt.Ctxt.create ()) ~now:(fun () -> 0) in
           outcome.Rmt.Interp.steps <= report.Rmt.Verifier.worst_case_steps
         | Error _ -> false))

(* ---------------- Assembler ---------------- *)

let asm_source =
  {|
.name demo
.vmem 8
.map hash 32
.model 3
.cap guard 0 9
  ldctxtk r1, 0
  jgti r1, 5, big
  ldimm r0, 2
  exit
big:
  vldctxt 0, 0, 3
  callml model0, 0, 3
  exit
|}

let test_asm_parse_and_run () =
  let program = Rmt.Asm.parse_exn asm_source in
  Alcotest.(check int) "code length" 7 (Array.length program.Rmt.Program.code);
  Alcotest.(check int) "one map" 1 (Array.length program.Rmt.Program.map_specs);
  let model =
    Rmt.Model_store.Fn
      { n_features = 3; cost = Kml.Model_cost.zero; f = (fun _ -> 5) }
  in
  let _control, vm = install_raw ~models:[ ("m", model) ] ~model_names:[ "m" ] program in
  let ctxt = Rmt.Ctxt.of_list [ (0, 9) ] in
  Alcotest.(check int) "big path" 5
    (Single.run vm ~ctxt ~now:(fun () -> 0)).Rmt.Interp.result;
  let ctxt = Rmt.Ctxt.of_list [ (0, 1) ] in
  Alcotest.(check int) "small path" 2
    (Single.run vm ~ctxt ~now:(fun () -> 0)).Rmt.Interp.result

let test_asm_errors () =
  (match Rmt.Asm.parse "bogus r1, r2" with
   | Error { line = 1; _ } -> ()
   | Error e -> Alcotest.failf "wrong line: %s" (Format.asprintf "%a" Rmt.Asm.pp_error e)
   | Ok _ -> Alcotest.fail "expected parse error");
  (match Rmt.Asm.parse "jmp nowhere\n  exit" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown label must fail")

let test_asm_roundtrip () =
  let program = Rmt.Asm.parse_exn asm_source in
  let printed = Rmt.Asm.print program in
  let reparsed = Rmt.Asm.parse_exn printed in
  Alcotest.(check bool) "code identical" true
    (program.Rmt.Program.code = reparsed.Rmt.Program.code);
  Alcotest.(check bool) "decls identical" true
    (program.Rmt.Program.map_specs = reparsed.Rmt.Program.map_specs
     && program.Rmt.Program.model_arity = reparsed.Rmt.Program.model_arity
     && program.Rmt.Program.capabilities = reparsed.Rmt.Program.capabilities)

let prop_builder_programs_roundtrip =
  QCheck2.Test.make ~name:"asm print/parse round-trips random programs" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Kml.Rng.create seed in
      let program = random_program rng in
      match Rmt.Verifier.check ~helpers ~model_costs:[||] program with
      | Error _ -> QCheck2.assume_fail ()
      | Ok _ ->
        let reparsed = Rmt.Asm.parse_exn (Rmt.Asm.print program) in
        reparsed.Rmt.Program.code = program.Rmt.Program.code)

let suite =
  [ ( "insn",
      [ Alcotest.test_case "alu semantics" `Quick test_alu_semantics;
        Alcotest.test_case "cond semantics" `Quick test_cond_semantics ] );
    ( "ctxt",
      [ Alcotest.test_case "basics" `Quick test_ctxt_basics ] );
    ( "map_store",
      [ Alcotest.test_case "array" `Quick test_map_array;
        Alcotest.test_case "hash capacity" `Quick test_map_hash_capacity;
        Alcotest.test_case "lru eviction" `Quick test_map_lru_eviction;
        Alcotest.test_case "ring" `Quick test_map_ring;
        QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity ] );
    ( "verifier",
      [ Alcotest.test_case "rejections" `Quick test_verifier_rejects;
        Alcotest.test_case "privacy budget required" `Quick test_verifier_rejects_privacy;
        Alcotest.test_case "vmem bounds" `Quick test_verifier_vmem_bounds;
        Alcotest.test_case "step budget" `Quick test_verifier_step_budget;
        Alcotest.test_case "accepts and reports" `Quick test_verifier_accepts_and_reports ] );
    ( "interp",
      [ Alcotest.test_case "arith" `Quick test_interp_arith_program;
        Alcotest.test_case "branches" `Quick test_interp_branches;
        Alcotest.test_case "rep loop" `Quick test_interp_rep_loop;
        Alcotest.test_case "maps" `Quick test_interp_maps;
        Alcotest.test_case "helper call" `Quick test_interp_helper_call;
        Alcotest.test_case "guardrail" `Quick test_interp_guardrail;
        Alcotest.test_case "tail call" `Quick test_interp_tail_call;
        Alcotest.test_case "vector ml isa" `Quick test_interp_vector_ml_isa;
        Alcotest.test_case "call_ml" `Quick test_interp_call_ml ] );
    ( "differential",
      [ QCheck_alcotest.to_alcotest prop_interp_equals_jit;
        QCheck_alcotest.to_alcotest prop_verified_programs_terminate ] );
    ( "asm",
      [ Alcotest.test_case "parse and run" `Quick test_asm_parse_and_run;
        Alcotest.test_case "errors" `Quick test_asm_errors;
        Alcotest.test_case "roundtrip" `Quick test_asm_roundtrip;
        QCheck_alcotest.to_alcotest prop_builder_programs_roundtrip ] ) ]
