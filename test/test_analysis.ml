(* Tests for lib/analysis (DESIGN.md section 15): the small-scope model
   checker over the serving-plane protocols (real protocols exhaustively
   pass, deliberately broken variants yield counterexample traces, the
   sleep-set reduction preserves verdicts and state counts), the
   absint-powered lint (zero findings on every shipped program, every
   seeded-defect mutant caught by its expected rule). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

module Mc = Analysis.Mc
module Models = Analysis.Mc_models
module Lint = Analysis.Lint
module Corpus = Analysis.Corpus

(* ---------------- Model checker ---------------- *)

let real_models () =
  [ Models.ring ~capacity:2 ~pushes:4 ~max_batch:2 ();
    Models.ring ~capacity:4 ~pushes:6 ~max_batch:2 ();
    Models.shard ~pushes:3 () ]

let test_mc_real_protocols_pass () =
  List.iter
    (fun model ->
      let module M = (val model : Mc.MODEL) in
      match Mc.run model with
      | Mc.Pass stats ->
        check_bool (M.name ^ " explores states") true (stats.Mc.states > 0)
      | Mc.Fail _ as outcome ->
        Alcotest.failf "%s: %a" M.name Mc.pp_outcome outcome)
    (real_models ())

(* The sleep-set reduction prunes transitions, never states: verdicts
   and visited state counts are identical with the reduction off, and
   the reduction only ever lowers the transition count. *)
let test_mc_reduction_preserves_state_space () =
  List.iter
    (fun model ->
      let module M = (val model : Mc.MODEL) in
      let reduced = Mc.run ~reduction:true model in
      let full = Mc.run ~reduction:false model in
      check_bool (M.name ^ " verdicts agree") true
        (Mc.verdict_name reduced = Mc.verdict_name full);
      check_int (M.name ^ " same states either way") (Mc.stats_of full).Mc.states
        (Mc.stats_of reduced).Mc.states;
      check_bool (M.name ^ " reduction does not add transitions") true
        ((Mc.stats_of reduced).Mc.transitions <= (Mc.stats_of full).Mc.transitions);
      check_int (M.name ^ " full run skips nothing") 0 (Mc.stats_of full).Mc.sleep_skips)
    (real_models ())

(* Negative tests: each deliberately broken protocol variant must yield
   a counterexample.  The trace is printed when the expectation is
   violated, and sanity-checked (nonempty, ends at the violation) when
   it holds. *)
let broken_variants =
  [ ("lost push",
     fun () -> Models.ring ~bug:Models.Stale_cached_head ~capacity:2 ~pushes:3 ~max_batch:2 ());
    ("quiescent drain incomplete",
     fun () -> Models.ring ~bug:Models.No_drain_refresh ~capacity:2 ~pushes:3 ~max_batch:2 ());
    ("lost wake", fun () -> Models.shard ~bug:Models.Dropped_wake ~pushes:2 ()) ]

let test_mc_broken_variants_fail () =
  List.iter
    (fun (expected_property, make) ->
      let model = make () in
      let module M = (val model : Mc.MODEL) in
      match Mc.run model with
      | Mc.Pass _ as outcome ->
        Alcotest.failf "%s: expected a '%s' counterexample, got %a" M.name
          expected_property Mc.pp_outcome outcome
      | Mc.Fail { property; trace; _ } ->
        if not (contains ~needle:expected_property property) then
          Alcotest.failf "%s: expected property '%s', got '%s'" M.name expected_property
            property;
        check_bool (M.name ^ " trace is nonempty") true (trace <> []))
    broken_variants

(* Without the sleep-set reduction the same violations must still be
   found — the reduction is an optimization, not part of the spec. *)
let test_mc_broken_variants_fail_unreduced () =
  List.iter
    (fun (_, make) ->
      let model = make () in
      let module M = (val model : Mc.MODEL) in
      match Mc.run ~reduction:false model with
      | Mc.Fail _ -> ()
      | Mc.Pass _ -> Alcotest.failf "%s: unreduced run missed the violation" M.name)
    broken_variants

let test_mc_max_states_bound () =
  match Mc.run ~max_states:3 (Models.ring ~capacity:4 ~pushes:6 ~max_batch:2 ()) with
  | Mc.Fail { property; _ } ->
    check_bool "reports the bound" true (contains ~needle:"state space exceeded" property)
  | Mc.Pass _ -> Alcotest.fail "a 3-state bound cannot cover the ring model"

(* ---------------- Lint ---------------- *)

let helpers = Rmt.Helper.with_defaults ()

let test_lint_clean_corpus () =
  let progs = Corpus.clean () in
  check_bool "corpus covers the shipped programs" true (List.length progs >= 9);
  List.iter
    (fun (name, prog) ->
      match Lint.analyze ~helpers prog with
      | Error e -> Alcotest.failf "%s: did not verify: %s" name e
      | Ok [] -> ()
      | Ok findings ->
        Alcotest.failf "%s: false positive(s): %s" name
          (String.concat "; " (List.map (Format.asprintf "%a" Lint.pp_finding) findings)))
    progs

let test_lint_mutation_corpus () =
  let mutants = Corpus.mutants () in
  check_bool "at least 12 seeded defects" true (List.length mutants >= 12);
  List.iter
    (fun (name, expected, prog) ->
      match Lint.analyze ~helpers prog with
      | Error e -> Alcotest.failf "%s: did not verify: %s" name e
      | Ok findings ->
        if not (List.exists (fun f -> f.Lint.rule = expected) findings) then
          Alcotest.failf "%s: expected %s, got [%s]" name expected
            (String.concat "; " (List.map (fun f -> f.Lint.rule) findings)))
    mutants

let find_mutant name =
  let _, _, prog = List.find (fun (n, _, _) -> n = name) (Corpus.mutants ()) in
  prog

let test_lint_severity_and_json () =
  (match Lint.analyze ~helpers (find_mutant "m09_unclean_map_read") with
   | Ok [ f ] ->
     check_bool "taint laundering is deny-severity" true (f.Lint.severity = Lint.Deny)
   | Ok fs -> Alcotest.failf "m09: expected one finding, got %d" (List.length fs)
   | Error e -> Alcotest.failf "m09: %s" e);
  match Lint.analyze ~helpers (find_mutant "m01_dead_store") with
  | Ok findings ->
    let json = Lint.findings_to_json ~program:"m01" findings in
    check_bool "json names the program" true (contains ~needle:{|{"program":"m01"|} json);
    check_bool "json carries the rule" true (contains ~needle:{|"rule":"dead-store"|} json)
  | Error e -> Alcotest.failf "m01: %s" e

let suite =
  [ ( "analysis",
      [ Alcotest.test_case "mc: real protocols pass exhaustively" `Quick
        test_mc_real_protocols_pass;
      Alcotest.test_case "mc: sleep-set reduction preserves the state space" `Quick
        test_mc_reduction_preserves_state_space;
      Alcotest.test_case "mc: broken variants yield counterexample traces" `Quick
        test_mc_broken_variants_fail;
      Alcotest.test_case "mc: broken variants fail without reduction too" `Quick
        test_mc_broken_variants_fail_unreduced;
      Alcotest.test_case "mc: max-states bound aborts with a pseudo-property" `Quick
        test_mc_max_states_bound;
      Alcotest.test_case "lint: every shipped program is clean" `Quick
        test_lint_clean_corpus;
      Alcotest.test_case "lint: every seeded defect is caught" `Quick
        test_lint_mutation_corpus;
      Alcotest.test_case "lint: severity and JSON export" `Quick
        test_lint_severity_and_json ] ) ]
