(* Abstract-interpreter soundness tests (ISSUE PR 3).

   Three layers:
   - interval transfer functions cross-checked exhaustively against
     [Insn.eval_alu]/[eval_cond] on corner intervals (min_int/max_int
     endpoints, the [land 62] shift mask, division/modulo by zero);
   - hand-built programs exercising the per-pc facts, the strict-mode
     and privacy-flow verifier violations, and engine agreement on a
     context-streaming program (every engine counts the same reads);
   - the 5000-program differential fuzzer from [Rmt.Fuzz]. *)

open Rmt

let corner_vals =
  [ min_int; min_int + 1; min_int / 2; -1000; -64; -63; -2; -1; 0; 1; 2; 7; 62; 63; 64;
    1000; max_int / 2; max_int - 1; max_int ]

let corner_intervals =
  List.concat_map
    (fun lo ->
      List.filter_map
        (fun hi -> if lo <= hi then Some (Absint.Interval.make lo hi) else None)
        corner_vals)
    corner_vals

let samples_in (iv : Absint.Interval.t) =
  List.filter (fun v -> Absint.Interval.mem v iv) corner_vals

let all_alu_ops : Insn.alu list =
  [ Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr; Min; Max ]

let all_conds : Insn.cond list = [ Eq; Ne; Lt; Le; Gt; Ge ]

(* Soundness of every ALU transfer function: for corner intervals [a], [b]
   and concrete points inside them, [eval_alu op x y] must land in
   [forward_alu op a b].  The value pool makes this cover overflow at both
   infinities, [min_int / -1], division/modulo by zero, and shift amounts
   on both sides of the [land 62] mask (including 63 and 64, whose bit 0
   is outside the mask). *)
let test_forward_alu_sound () =
  let checked = ref 0 in
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          let xs = samples_in a in
          List.iter
            (fun b ->
              let r = Absint.Interval.forward_alu op a b in
              List.iter
                (fun x ->
                  List.iter
                    (fun y ->
                      let v = Insn.eval_alu op x y in
                      if not (Absint.Interval.mem v r) then
                        Alcotest.failf "%s: %d op %d = %d outside %a (a=%a b=%a)"
                          (match op with
                           | Insn.Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div"
                           | Mod -> "mod" | And -> "and" | Or -> "or" | Xor -> "xor"
                           | Shl -> "shl" | Shr -> "shr" | Min -> "min" | Max -> "max")
                          x y v Absint.Interval.pp r Absint.Interval.pp a Absint.Interval.pp b;
                      incr checked)
                    (samples_in b))
                xs)
            corner_intervals)
        corner_intervals)
    all_alu_ops;
  Alcotest.(check bool) "checked many points" true (!checked > 1_000_000)

(* Branch refinement: whenever the condition holds on concrete points the
   refinement must exist and contain them; [negate_cond] must be the exact
   boolean complement. *)
let test_refine_sound () =
  List.iter
    (fun c ->
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              Alcotest.(check bool) "negate_cond complements"
                (not (Insn.eval_cond c x y))
                (Insn.eval_cond (Absint.Interval.negate_cond c) x y))
            corner_vals)
        corner_vals;
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              match Absint.Interval.refine c a b with
              | Some (a', b') ->
                List.iter
                  (fun x ->
                    List.iter
                      (fun y ->
                        if Insn.eval_cond c x y then begin
                          if not (Absint.Interval.mem x a' && Absint.Interval.mem y b') then
                            Alcotest.failf "refine lost (%d, %d): %a / %a" x y
                              Absint.Interval.pp a' Absint.Interval.pp b'
                        end)
                      (samples_in b))
                  (samples_in a)
              | None ->
                (* infeasible: no concrete pair may satisfy the condition *)
                List.iter
                  (fun x ->
                    List.iter
                      (fun y ->
                        if Insn.eval_cond c x y then
                          Alcotest.failf "refine claims infeasible but %d ? %d holds" x y)
                      (samples_in b))
                  (samples_in a))
            corner_intervals)
        corner_intervals)
    all_conds

let test_interval_basics () =
  let open Absint.Interval in
  Alcotest.(check bool) "const is_const" true (is_const (const 7));
  Alcotest.(check bool) "top not const" false (is_const top);
  Alcotest.(check bool) "join contains both" true
    (mem (-3) (join (const (-3)) (const 9)) && mem 9 (join (const (-3)) (const 9)));
  (match meet (make 0 10) (make 5 20) with
   | Some m -> Alcotest.(check bool) "meet" true (equal m (make 5 10))
   | None -> Alcotest.fail "meet of overlapping intervals");
  Alcotest.(check bool) "meet disjoint" true (meet (make 0 1) (make 3 4) = None);
  let w = widen (make 0 10) (make 0 11) in
  Alcotest.(check bool) "widen unstable hi" true (mem max_int w && mem 0 w);
  Alcotest.check_raises "make validates" (Invalid_argument "Absint.Interval.make: lo > hi")
    (fun () -> ignore (make 1 0));
  (* min_int / -1 wraps to min_int in eval_alu; the transfer must cover it *)
  Alcotest.(check bool) "min_int / -1" true
    (mem (Insn.eval_alu Insn.Div min_int (-1)) (forward_alu Insn.Div (const min_int) (const (-1))));
  Alcotest.(check bool) "div by zero is 0" true
    (mem 0 (forward_alu Insn.Div (const 5) (make (-1) 1)));
  Alcotest.(check bool) "mod by zero is 0" true
    (mem 0 (forward_alu Insn.Mod (const 5) (make (-1) 1)));
  (* shift masks: 63 land 62 = 62, 64 land 62 = 0 *)
  Alcotest.(check bool) "shl 63 wraps via mask" true
    (mem (1 lsl 62) (forward_alu Insn.Shl (const 1) (const 63)));
  Alcotest.(check bool) "shl 64 is identity via mask" true
    (mem 1 (forward_alu Insn.Shl (const 1) (const 64)))

(* ---------------- pp totality ---------------- *)

let all_violations : Verifier.violation list =
  [ Empty_program;
    Code_too_long 9999;
    Vmem_too_large 9999;
    Const_pool_too_large 9999;
    Bad_register { pc = 1; reg = 77 };
    Bad_map_slot { pc = 1; slot = 3 };
    Bad_model_slot { pc = 1; slot = 3 };
    Bad_prog_slot { pc = 1; slot = 3 };
    Bad_helper { pc = 1; id = 42 };
    Bad_const { pc = 1; id = 4 };
    Negative_ctxt_key { pc = 1; key = -2 };
    Vmem_out_of_bounds { pc = 1 };
    Backward_jump { pc = 3; target = 1 };
    Jump_out_of_range { pc = 3; target = 99 };
    Jump_escapes_loop { pc = 3; target = 9 };
    Bad_rep { pc = 0; count = -1; body_len = 0 };
    Falls_off_end { pc = 5 };
    Steps_exceeded { worst_case = 100; allowed = 10 };
    Uninitialized_register { pc = 2; reg = 4 };
    Missing_privacy_budget { pc = 2; helper = 3 };
    Model_arity_mismatch { pc = 2; slot = 0; expected = 3; got = 2 };
    Ml_cost_exceeded { cost = Kml.Model_cost.zero };
    Ctxt_key_unproven { pc = 2; reg = 1 };
    Vmem_index_unproven { pc = 2 };
    Privacy_flow { pc = 2; reg = 6 } ]

let test_pp_violation_total () =
  List.iter
    (fun v ->
      let s = Verifier.violation_to_string v in
      Alcotest.(check bool) "nonempty rendering" true (String.length s > 0))
    all_violations;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ctxt key message" true
    (contains (Verifier.violation_to_string (Ctxt_key_unproven { pc = 2; reg = 1 })) "not proven");
  Alcotest.(check bool) "window message" true
    (contains (Verifier.violation_to_string (Vmem_index_unproven { pc = 2 })) "not proven");
  Alcotest.(check bool) "privacy message" true
    (contains
       (Verifier.violation_to_string (Privacy_flow { pc = 2; reg = 6 }))
       "privacy budget")

(* ---------------- verifier integration ---------------- *)

let helpers = Helper.with_defaults ()

let check ?strict ?(capabilities = []) ?(map_specs = []) ?(vmem_size = 0) code =
  Verifier.check ?strict ~helpers ~model_costs:[||]
    (Program.make ~name:"t" ~vmem_size ~map_specs ~capabilities code)

let expect_ok name = function
  | Ok (r : Verifier.report) -> r
  | Error v -> Alcotest.failf "%s: unexpectedly rejected: %s" name (Verifier.violation_to_string v)

let array_map cap = { Map_store.kind = Map_store.Array_map; capacity = cap }

(* The verifier's interval for [reg] flowing into [pc] lies in [lo, hi]. *)
let reg_within (r : Verifier.report) ~pc ~reg ~lo ~hi =
  match r.Verifier.facts.(pc) with
  | Some f ->
    let iv = f.Absint.regs.(reg) in
    iv.Absint.Interval.lo >= lo && iv.Absint.Interval.hi <= hi
  | None -> false

let test_strict_mode () =
  let open Insn in
  (* dynamic key from the context: interval is top, guard must stay *)
  let unproven_key =
    [ Ld_imm (0, 0); Ld_ctxt_k (1, 0); Ld_imm (2, 5); St_ctxt_r (1, 2); Exit ]
  in
  ignore (expect_ok "default admits guarded key" (check unproven_key));
  (match check ~strict:true unproven_key with
   | Error (Verifier.Ctxt_key_unproven { pc = 3; reg = 1 }) -> ()
   | Error v -> Alcotest.failf "wrong violation: %s" (Verifier.violation_to_string v)
   | Ok _ -> Alcotest.fail "strict mode admitted unproven dynamic key");
  (* masking the key makes strict mode pass: the key is in the dense range *)
  let masked =
    [ Ld_imm (0, 0); Ld_ctxt_k (1, 0); Alu_imm (And, 1, 63); Ld_imm (2, 5); St_ctxt_r (1, 2);
      Exit ]
  in
  let r = expect_ok "strict admits masked key" (check ~strict:true masked) in
  Alcotest.(check bool) "masked key dense at store" true
    (reg_within r ~pc:4 ~reg:1 ~lo:0 ~hi:(Ctxt.dense_bound - 1));
  (* unproven vector window *)
  let unproven_window =
    [ Ld_imm (0, 0); Ld_ctxt_k (1, 0); Vec_ld_map (0, 0, 1, 4); Exit ]
  in
  ignore
    (expect_ok "default admits guarded window"
       (check ~map_specs:[ array_map 16 ] ~vmem_size:4 unproven_window));
  (match check ~strict:true ~map_specs:[ array_map 16 ] ~vmem_size:4 unproven_window with
   | Error (Verifier.Vmem_index_unproven { pc = 2 }) -> ()
   | Error v -> Alcotest.failf "wrong violation: %s" (Verifier.violation_to_string v)
   | Ok _ -> Alcotest.fail "strict mode admitted unproven window");
  let masked_window =
    [ Ld_imm (0, 0); Ld_ctxt_k (1, 0); Alu_imm (And, 1, 7); Vec_ld_map (0, 0, 1, 4); Exit ]
  in
  let r =
    expect_ok "strict admits masked window"
      (check ~strict:true ~map_specs:[ array_map 16 ] ~vmem_size:4 masked_window)
  in
  (* base in [0, 7], so base + 4 stays inside the 16-slot map *)
  Alcotest.(check bool) "masked window in bounds" true (reg_within r ~pc:3 ~reg:1 ~lo:0 ~hi:12)

let test_privacy_flow () =
  let open Insn in
  let leak =
    [ Ld_imm (0, 0); Ld_imm (1, 3); Ld_ctxt_k (2, 5); Map_update (0, 1, 2); Exit ]
  in
  (match check ~map_specs:[ array_map 16 ] leak with
   | Error (Verifier.Privacy_flow { pc = 3; reg = 2 }) -> ()
   | Error v -> Alcotest.failf "wrong violation: %s" (Verifier.violation_to_string v)
   | Ok _ -> Alcotest.fail "tainted sink admitted without budget");
  (* a declared budget legitimises the flow *)
  ignore
    (expect_ok "budget admits flow"
       (check ~map_specs:[ array_map 16 ]
          ~capabilities:[ Program.Privacy_budget { epsilon_milli = 100 } ]
          leak));
  (* map contents are already persisted: reading them back is clean *)
  let readback =
    [ Ld_imm (0, 0); Ld_imm (1, 3); Ld_ctxt_k (2, 5); Map_lookup (3, 0, 1);
      Map_update (0, 1, 3); Exit ]
  in
  ignore (expect_ok "map readback is clean" (check ~map_specs:[ array_map 16 ] readback));
  (* arithmetic on tainted data stays tainted *)
  let laundered =
    [ Ld_imm (0, 0); Ld_imm (1, 3); Ld_ctxt_k (2, 5); Alu_imm (Mul, 2, 7); Alu (Add, 2, 1);
      Ring_push (0, 2); Exit ]
  in
  (match
     check ~map_specs:[ { Map_store.kind = Map_store.Ring_buffer; capacity = 8 } ] laundered
   with
   | Error (Verifier.Privacy_flow { pc = 5; reg = 2 }) -> ()
   | Error v -> Alcotest.failf "wrong violation: %s" (Verifier.violation_to_string v)
   | Ok _ -> Alcotest.fail "laundered taint admitted")

let test_dead_code_tightens_worst_case () =
  let open Insn in
  let r =
    expect_ok "dead branch"
      (check [ Ld_imm (0, 1); Jmp 2; Ld_imm (0, 2); Ld_imm (0, 3); Exit ])
  in
  Alcotest.(check int) "only reachable pcs counted" 3 r.Verifier.worst_case_steps;
  Alcotest.(check bool) "dead pc has no fact" true (r.Verifier.facts.(2) = None);
  (* infeasible conditional: r1 = 4 so the Lt 0 branch cannot be taken *)
  let r =
    expect_ok "infeasible branch"
      (check
         [ Ld_imm (0, 1); Ld_imm (1, 4); Jcond_imm (Lt, 1, 0, 1); Jmp 1; Ld_imm (0, 9); Exit ])
  in
  Alcotest.(check bool) "infeasible target dead" true (r.Verifier.facts.(4) = None);
  Alcotest.(check bool) "fallthrough reachable" true (r.Verifier.facts.(3) <> None)

(* One guarded semantics: the interpreter, the JIT and the SoA batch
   kernel agree on a context-streaming program, and each counts the same
   context reads. *)
let test_engines_agree () =
  let open Insn in
  let prog =
    Program.make ~name:"dense" ~vmem_size:4
      [ Ld_imm (1, 70); Alu_imm (And, 1, 63); Ld_ctxt (0, 1); Vec_ld_ctxt (0, 4, 3);
        Vec_ld_reg (2, 1); Alu (Add, 0, 2); St_ctxt (9, 0); Exit ]
  in
  ignore
    (expect_ok "strict admits dense prog"
       (Verifier.check ~strict:true ~helpers ~model_costs:[||] prog));
  let link () =
    Loaded.link ~store:(Model_store.create ()) ~helpers ~maps:[||] ~models:[||] prog
  in
  let bindings = [ (6, 42); (5, 7) ] in
  let now () = 0 in
  (* r0 = ctxt[6] + vmem[1] = 42 + ctxt[5] = 49, also stored at key 9;
     1 Ld_ctxt + 3 Vec_ld_ctxt = 4 reads *)
  let expect name result ctxt =
    Alcotest.(check int) (name ^ " result") 49 result;
    Alcotest.(check int) (name ^ " reads") 4 (Ctxt.reads ctxt);
    Alcotest.(check int) (name ^ " stored key 9") 49 (Ctxt.get ctxt 9)
  in
  let ctxt = Ctxt.of_list bindings in
  expect "interp" (Interp.run (link ()) ~ctxt ~now).Interp.result ctxt;
  let ctxt = Ctxt.of_list bindings in
  let compiled = Jit.compile (link ()) in
  Alcotest.(check bool) "SoA-eligible" true (Jit.batch_eligible compiled);
  expect "jit" (Jit.run compiled ~ctxt ~now).Interp.result ctxt;
  let vm = Vm.create ~engine:Vm.Jit_compiled (link ()) in
  let b = Batch.create ~capacity:3 in
  for s = 0 to 2 do
    b.Batch.ctxts.(s) <- Ctxt.of_list bindings
  done;
  Vm.invoke_batch vm b ~now;
  for s = 0 to 2 do
    expect (Printf.sprintf "batch slot %d" s) b.Batch.results.(s) b.Batch.ctxts.(s)
  done

let test_analyze_facts () =
  let open Insn in
  let prog =
    Program.make ~name:"facts"
      [ Ld_imm (0, 10); Ld_imm (1, 3); Alu (Add, 0, 1); Rep (5, 1); Alu_imm (Add, 1, 2);
        Exit ]
  in
  let ai = Absint.analyze ~helpers prog in
  (match ai.Absint.facts.(2) with
   | Some f ->
     Alcotest.(check bool) "r0 = 10 before add" true
       (Absint.Interval.equal f.Absint.regs.(0) (Absint.Interval.const 10))
   | None -> Alcotest.fail "pc 2 reachable");
  (match ai.Absint.facts.(5) with
   | Some f ->
     (* loop unrolled abstractly: r1 = 3 + 5*2 = 13 exactly *)
     Alcotest.(check bool) "r1 after rep" true
       (Absint.Interval.equal f.Absint.regs.(1) (Absint.Interval.const 13))
   | None -> Alcotest.fail "pc 5 reachable");
  let s = Format.asprintf "%a" (fun fmt () -> Absint.pp fmt ai prog) () in
  Alcotest.(check bool) "pp renders" true (String.length s > 0);
  (match ai.Absint.facts.(2) with
   | Some f ->
     let s = Format.asprintf "%a" Absint.pp_fact f in
     Alcotest.(check bool) "pp_fact renders" true (String.length s > 0)
   | None -> ())

let test_fuzz () =
  let stats = Fuzz.run ~seed:0xAB51 ~trials:5000 () in
  Alcotest.(check int) "all trials ran" 5000 stats.Fuzz.trials;
  Alcotest.(check bool) "most programs accepted and executed" true (stats.Fuzz.accepted > 4000);
  Alcotest.(check bool) "interval claims exercised" true (stats.Fuzz.claims_checked > 1_000_000);
  (* The batch lane runs at least once per accepted program (batch of 1),
     plus three more slots when the program admits the SoA kernel. *)
  Alcotest.(check bool) "batch lane exercised" true
    (stats.Fuzz.batch_slots_checked >= stats.Fuzz.accepted)

let suite =
  [ ( "absint",
      [ Alcotest.test_case "interval basics" `Quick test_interval_basics;
        Alcotest.test_case "forward_alu sound on corners" `Quick test_forward_alu_sound;
        Alcotest.test_case "refine sound on corners" `Quick test_refine_sound;
        Alcotest.test_case "pp_violation total" `Quick test_pp_violation_total;
        Alcotest.test_case "strict mode" `Quick test_strict_mode;
        Alcotest.test_case "privacy flow" `Quick test_privacy_flow;
        Alcotest.test_case "dead code tightens worst case" `Quick
          test_dead_code_tightens_worst_case;
        Alcotest.test_case "engines agree on ctxt" `Quick test_engines_agree;
        Alcotest.test_case "analyze facts" `Quick test_analyze_facts;
        Alcotest.test_case "differential fuzz (5000 programs)" `Quick test_fuzz ] ) ]
