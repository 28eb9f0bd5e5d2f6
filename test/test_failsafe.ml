(* Tests for the failsafe layer (DESIGN.md section 12): fault injection,
   circuit breaker, trap containment at the Vm boundary, transactional
   canary installs, decode fuzzing, and the chaos soak's pool-width
   determinism and isolation from an ambient fault plan. *)

let now0 () = 0

(* ---------------- Fault plans ---------------- *)

let test_fault_parse_spec () =
  (match Rmt.Fault.parse_spec "engine_trap:0.5" with
   | Ok [ (Rmt.Fault.Engine_trap, p) ] -> Alcotest.(check (float 1e-9)) "prob" 0.5 p
   | Ok _ -> Alcotest.fail "wrong plan shape"
   | Error e -> Alcotest.fail e);
  (match Rmt.Fault.parse_spec "all:0.01" with
   | Ok plan ->
     Alcotest.(check int) "all points" (List.length Rmt.Fault.all_points) (List.length plan)
   | Error e -> Alcotest.fail e);
  (match Rmt.Fault.parse_spec "bogus:0.1" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown point must be rejected");
  (match Rmt.Fault.parse_spec "engine_trap" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing probability must be rejected");
  List.iter
    (fun spec ->
      match Rmt.Fault.parse_spec spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" spec)
    [ "al:0.01"; "all:0.01,"; ",all:0.01"; "all:0.01,,engine_trap:0.1"; "all:nan";
      "all:inf"; "all:-0.1"; "all:1.5" ];
  (match Rmt.Fault.parse_spec "engine_trap:0,table_miss:1" with
   | Ok [ (_, 0.0); (_, 1.0) ] -> ()
   | Ok _ -> Alcotest.fail "wrong plan shape"
   | Error e -> Alcotest.fail e);
  List.iter
    (fun p ->
      Alcotest.(check (option string))
        (Rmt.Fault.point_name p) (Some (Rmt.Fault.point_name p))
        (Option.map Rmt.Fault.point_name
           (Rmt.Fault.point_of_name (Rmt.Fault.point_name p))))
    Rmt.Fault.all_points

let test_fault_plan_determinism () =
  let draw () =
    Rmt.Fault.with_plan ~seed:0xfeed
      [ (Rmt.Fault.Engine_trap, 0.5) ]
      (fun () -> List.init 200 (fun _ -> Rmt.Fault.fire Rmt.Fault.Engine_trap))
  in
  let a = draw () and b = draw () in
  Alcotest.(check (list bool)) "same seed, same schedule" a b;
  Alcotest.(check bool) "nontrivial schedule" true
    (List.mem true a && List.mem false a)

let test_fault_scoping () =
  Alcotest.(check bool) "inert outside a plan" false
    (Rmt.Fault.fire Rmt.Fault.Engine_trap);
  Rmt.Fault.with_plan ~seed:1
    [ (Rmt.Fault.Engine_trap, 1.0) ]
    (fun () ->
      Alcotest.(check bool) "armed" true (Rmt.Fault.active ());
      Alcotest.(check bool) "fires at p=1" true (Rmt.Fault.fire Rmt.Fault.Engine_trap);
      Rmt.Fault.without (fun () ->
          Alcotest.(check bool) "suppressed scope" false
            (Rmt.Fault.fire Rmt.Fault.Engine_trap));
      Alcotest.(check bool) "re-armed after without" true
        (Rmt.Fault.fire Rmt.Fault.Engine_trap));
  Alcotest.(check bool) "disarmed after with_plan" false
    (Rmt.Fault.fire Rmt.Fault.Engine_trap)

(* ---------------- Circuit breaker ---------------- *)

let test_breaker_state_machine () =
  let b = Rmt.Breaker.create "test" in
  Alcotest.(check bool) "closed admits" true (Rmt.Breaker.allow b ~now:0);
  (* it opens on the third consecutive failure *)
  for _ = 1 to 2 do
    Rmt.Breaker.record_failure b ~now:0
  done;
  Alcotest.(check bool) "still closed below threshold" true
    (Rmt.Breaker.state b = Rmt.Breaker.Closed);
  Rmt.Breaker.record_failure b ~now:0;
  Alcotest.(check bool) "open at threshold" true (Rmt.Breaker.state b = Rmt.Breaker.Open);
  Alcotest.(check bool) "open refuses" false (Rmt.Breaker.allow b ~now:0);
  let deadline = Rmt.Breaker.retry_at b in
  Alcotest.(check bool) "deadline in the future" true (deadline > 0);
  Alcotest.(check bool) "refuses before deadline" false
    (Rmt.Breaker.allow b ~now:(deadline - 1));
  Alcotest.(check bool) "admits a probe after deadline" true
    (Rmt.Breaker.allow b ~now:(deadline + 1));
  Alcotest.(check bool) "half-open" true (Rmt.Breaker.state b = Rmt.Breaker.Half_open);
  (* two probe successes close it *)
  for _ = 1 to 2 do
    Rmt.Breaker.record_success b ~now:(deadline + 1)
  done;
  Alcotest.(check bool) "closed after probes" true
    (Rmt.Breaker.state b = Rmt.Breaker.Closed);
  Alcotest.(check int) "one open" 1 (Rmt.Breaker.opens b);
  Alcotest.(check int) "one close" 1 (Rmt.Breaker.closes b)

let test_breaker_backoff_growth () =
  let b = Rmt.Breaker.create "growth" in
  Rmt.Breaker.trip b ~now:0;
  let first_interval = Rmt.Breaker.retry_at b in
  let probe_at = first_interval + 1 in
  Alcotest.(check bool) "probe admitted" true (Rmt.Breaker.allow b ~now:probe_at);
  Rmt.Breaker.record_failure b ~now:probe_at;
  Alcotest.(check bool) "re-opened" true (Rmt.Breaker.state b = Rmt.Breaker.Open);
  let second_interval = Rmt.Breaker.retry_at b - probe_at in
  Alcotest.(check bool) "backoff grew" true (second_interval > first_interval);
  Rmt.Breaker.reset b;
  Alcotest.(check bool) "reset closes" true (Rmt.Breaker.state b = Rmt.Breaker.Closed);
  Alcotest.(check int) "counters preserved" 2 (Rmt.Breaker.opens b)

let test_breaker_jitter_determinism () =
  let run () =
    let b = Rmt.Breaker.create "det" in
    Rmt.Breaker.trip b ~now:0;
    let d1 = Rmt.Breaker.retry_at b in
    ignore (Rmt.Breaker.allow b ~now:(d1 + 1));
    Rmt.Breaker.record_failure b ~now:(d1 + 1);
    (d1, Rmt.Breaker.retry_at b)
  in
  Alcotest.(check (pair int int)) "same name, same deadlines" (run ()) (run ())

(* ---------------- Guardrail window ---------------- *)

let test_guardrail_window_and_reset () =
  let g = Rmt.Guardrail.create_windowed ~window:16 ~lo:0 ~hi:10 in
  Alcotest.(check int) "in range passes" 5 (Rmt.Guardrail.apply g 5);
  Alcotest.(check bool) "no violations yet" false (Rmt.Guardrail.violation_rate_ge g 1e-9);
  for _ = 1 to 12 do
    Alcotest.(check int) "clamped" 10 (Rmt.Guardrail.apply g 20)
  done;
  Alcotest.(check int) "violations counted" 12 (Rmt.Guardrail.violations g);
  Alcotest.(check bool) "storm visible in window" true (Rmt.Guardrail.violation_rate_ge g 0.8);
  (* The 16th application completes the window (12 of 16 violated) and
     resets it; until 8 fresh observations arrive the completed window's
     rate stands in. *)
  for _ = 1 to 3 do
    Alcotest.(check int) "in range passes" 3 (Rmt.Guardrail.apply g 3)
  done;
  Alcotest.(check bool) "completed window stands in" true
    (Rmt.Guardrail.violation_rate_ge g 0.75);
  Alcotest.(check bool) "at its own rate" false (Rmt.Guardrail.violation_rate_ge g 0.76);
  for _ = 1 to 8 do
    ignore (Rmt.Guardrail.apply g 3 : int)
  done;
  Alcotest.(check bool) "fresh window speaks for itself" false
    (Rmt.Guardrail.violation_rate_ge g 1e-9);
  Alcotest.(check int) "lifetime count survives the window reset" 12
    (Rmt.Guardrail.violations g)

(* ---------------- Trap containment at the Vm boundary ---------------- *)

let guarded_prog ?(name = "p") ?(bias = 1) ?(lo = 0) ?(hi = 4095) () =
  let b = Rmt.Builder.create ~name ~vmem_size:1 () in
  Rmt.Builder.add_capability b (Rmt.Program.Guarded { lo; hi });
  Rmt.Builder.emit b (Rmt.Insn.Ld_ctxt_k (0, 0));
  Rmt.Builder.emit b (Rmt.Insn.Alu_imm (Rmt.Insn.Add, 0, bias));
  Rmt.Builder.emit b Rmt.Insn.Exit;
  Rmt.Builder.finish b ()

let test_trap_surfaces_as_value () =
  List.iter
    (fun engine ->
      let control = Rmt.Control.create ~engine () in
      let vm = Result.get_ok (Rmt.Control.install control (guarded_prog ())) in
      let b = Single.batch (Rmt.Ctxt.of_list [ (0, 10) ]) in
      let run () =
        Rmt.Vm.invoke_batch vm b ~now:now0;
        (b.Rmt.Batch.traps.(0), b.Rmt.Batch.results.(0))
      in
      Alcotest.(check bool) "healthy result" true (run () = (None, 11));
      Rmt.Fault.with_plan ~seed:3
        [ (Rmt.Fault.Engine_trap, 1.0) ]
        (fun () ->
          match run () with
          | Some Rmt.Interp.Trap_injected, 0 -> ()
          | Some t, _ -> Alcotest.failf "wrong trap: %s" (Rmt.Interp.trap_message t)
          | None, _ -> Alcotest.fail "injected trap must surface");
      Alcotest.(check int) "trap counted" 1 (Rmt.Vm.traps vm);
      Alcotest.(check bool) "healthy again after the plan" true (run () = (None, 11)))
    [ Rmt.Vm.Interpreted; Rmt.Vm.Jit_compiled ]

let test_trap_messages () =
  List.iter
    (fun t -> Alcotest.(check bool) "non-empty" true
        (String.length (Rmt.Interp.trap_message t) > 0))
    [ Rmt.Interp.Trap_fuel;
      Rmt.Interp.Trap_bounds "x";
      Rmt.Interp.Trap_div;
      Rmt.Interp.Trap_injected;
      Rmt.Interp.Trap_foreign "y" ]

let test_div_mod_extremes () =
  let open Rmt.Insn in
  Alcotest.(check int) "min_int / -1" min_int (eval_alu Div min_int (-1));
  Alcotest.(check int) "min_int mod -1" 0 (eval_alu Mod min_int (-1));
  (* The two engines agree on the hardware-trap corner. *)
  let prog =
    let b = Rmt.Builder.create ~name:"divx" ~vmem_size:1 () in
    Rmt.Builder.add_capability b (Rmt.Program.Guarded { lo = min_int; hi = max_int });
    Rmt.Builder.emit b (Rmt.Insn.Ld_ctxt_k (0, 0));
    Rmt.Builder.emit b (Rmt.Insn.Ld_ctxt_k (1, 1));
    Rmt.Builder.emit b (Rmt.Insn.Alu (Div, 0, 1));
    Rmt.Builder.emit b Rmt.Insn.Exit;
    Rmt.Builder.finish b ()
  in
  let ctxt = Rmt.Ctxt.of_list [ (0, min_int); (1, -1) ] in
  let run engine =
    let control = Rmt.Control.create ~engine () in
    let vm = Result.get_ok (Rmt.Control.install control prog) in
    Single.result vm ~ctxt ~now:now0
  in
  Alcotest.(check int) "interp" min_int (run Rmt.Vm.Interpreted);
  Alcotest.(check int) "jit" min_int (run Rmt.Vm.Jit_compiled)

(* ---------------- Canary install ---------------- *)

let canary_setup () =
  let control = Rmt.Control.create () in
  let vm = Result.get_ok (Rmt.Control.install control (guarded_prog ~bias:1 ())) in
  let ctxt = Rmt.Ctxt.of_list [ (0, 10) ] in
  let run () = Single.result vm ~ctxt ~now:now0 in
  (control, vm, run)

let test_canary_promote () =
  let control, vm, run = canary_setup () in
  Alcotest.(check int) "incumbent" 11 (run ());
  (match
     Rmt.Control.install_canary control ~invocations:4 ~max_divergences:0 ~grace:4
       (guarded_prog ~bias:1 ())
   with
   | Ok staged -> Alcotest.(check bool) "staged on the incumbent Vm" true (staged == vm)
   | Error e -> Alcotest.fail e);
  (match Rmt.Control.canary_status control "p" with
   | Some (`Canary (4, 0)) -> ()
   | _ -> Alcotest.fail "expected a 4-invocation canary");
  for _ = 1 to 4 do
    Alcotest.(check int) "incumbent serves during shadowing" 11 (run ())
  done;
  (match Rmt.Control.canary_status control "p" with
   | Some (`Grace _) -> ()
   | _ -> Alcotest.fail "identical candidate must be promoted");
  Alcotest.(check int) "candidate serves after promotion" 11 (run ());
  for _ = 1 to 8 do
    ignore (run ())
  done;
  (match Rmt.Control.canary_status control "p" with
   | Some `Idle -> ()
   | _ -> Alcotest.fail "grace window must expire");
  Alcotest.(check bool) "nothing left to roll back" false
    (Rmt.Control.rollback_program control "p")

let test_canary_divergent_rolled_back () =
  let control, _vm, run = canary_setup () in
  (match
     Rmt.Control.install_canary control ~invocations:4 ~max_divergences:0 ~grace:4
       (guarded_prog ~bias:100 ())
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  for _ = 1 to 6 do
    Alcotest.(check int) "incumbent result throughout" 11 (run ())
  done;
  (match Rmt.Control.canary_status control "p" with
   | Some `Idle -> ()
   | _ -> Alcotest.fail "divergent candidate must be dropped");
  Alcotest.(check int) "incumbent still serves" 11 (run ())

let test_canary_rollback_during_grace () =
  let control, _vm, run = canary_setup () in
  (match
     Rmt.Control.install_canary control ~invocations:2 ~max_divergences:2 ~grace:16
       (guarded_prog ~bias:2 ())
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  ignore (run ());
  ignore (run ());
  Alcotest.(check int) "promoted candidate serves" 12 (run ());
  Alcotest.(check bool) "rollback during grace" true
    (Rmt.Control.rollback_program control "p");
  Alcotest.(check int) "incumbent restored" 11 (run ())

let test_canary_cancel () =
  let control, _vm, run = canary_setup () in
  (match
     Rmt.Control.install_canary control ~invocations:64 (guarded_prog ~bias:9 ())
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "cancel in-flight" true (Rmt.Control.rollback_program control "p");
  (match Rmt.Control.canary_status control "p" with
   | Some `Idle -> ()
   | _ -> Alcotest.fail "cancelled canary must be idle");
  Alcotest.(check int) "incumbent untouched" 11 (run ())

(* A candidate that traps in shadow is disqualified on the spot: the live
   event keeps the incumbent's result, nothing escapes the protected hook,
   and the incumbent's breaker never hears about it. *)
let test_canary_trapping_candidate_contained () =
  let control = Rmt.Control.create () in
  let vm = Result.get_ok (Rmt.Control.install control (guarded_prog ~bias:1 ())) in
  let table =
    Rmt.Control.create_table control ~name:"t" ~match_keys:[||] ~default:(Rmt.Table.Run vm)
  in
  Rmt.Control.attach control ~hook:"h" table;
  let breaker =
    Rmt.Control.protect control ~hook:"h" ~programs:[ "p" ] ~fallback:(fun _ -> 999) ()
  in
  let (_ : Rmt.Model_store.handle) =
    Rmt.Control.register_model control ~name:"boom"
      (Rmt.Model_store.Fn
         { n_features = 1; cost = Kml.Model_cost.zero; f = (fun _ -> failwith "boom") })
  in
  let candidate =
    Rmt.Program.make ~name:"p" ~vmem_size:2 ~model_arity:[ 1 ]
      [ Rmt.Insn.Vec_ld_ctxt (0, 0, 1); Rmt.Insn.Call_ml (0, 0, 1); Rmt.Insn.Exit ]
  in
  (match
     Rmt.Control.install_canary control ~model_names:[ "boom" ] ~invocations:4 candidate
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let b = Rmt.Batch.create ~capacity:1 in
  b.Rmt.Batch.ctxts.(0) <- Rmt.Ctxt.of_list [ (0, 10) ];
  Alcotest.(check bool) "hook fired" true (Rmt.Control.fire_batch control ~hook:"h" b);
  Alcotest.(check int) "incumbent result kept" 11 b.Rmt.Batch.results.(0);
  Alcotest.(check bool) "no trap on the live slot" true (b.Rmt.Batch.traps.(0) = None);
  (match Rmt.Control.canary_status control "p" with
   | Some `Idle -> ()
   | _ -> Alcotest.fail "trapping candidate must be rolled back");
  Alcotest.(check bool) "nothing left to roll back" false
    (Rmt.Control.rollback_program control "p");
  Alcotest.(check int) "incumbent never trapped" 0 (Rmt.Vm.traps vm);
  Alcotest.(check bool) "breaker closed" true (Rmt.Breaker.state breaker = Rmt.Breaker.Closed);
  Alcotest.(check int) "no breaker failure" 0 (Rmt.Breaker.consecutive_failures breaker);
  Alcotest.(check int) "no fallback served" 0
    (Rmt.Pipeline.fallback_served (Rmt.Control.pipeline control) ~hook:"h")

(* ---------------- Protected pipeline dispatch ---------------- *)

let test_pipeline_fallback_on_open () =
  let control = Rmt.Control.create () in
  let now = ref 0 in
  Rmt.Control.set_clock control (fun () -> !now);
  let vm = Result.get_ok (Rmt.Control.install control (guarded_prog ~bias:1 ())) in
  let table =
    Rmt.Control.create_table control ~name:"t" ~match_keys:[||]
      ~default:(Rmt.Table.Run vm)
  in
  Rmt.Control.attach control ~hook:"h" table;
  let breaker =
    Rmt.Control.protect control ~hook:"h" ~programs:[ "p" ] ~fallback:(fun _ -> 999) ()
  in
  let ctxt = Rmt.Ctxt.of_list [ (0, 10) ] in
  let fire () = Rmt.Control.fire control ~hook:"h" ~ctxt in
  Alcotest.(check (option int)) "healthy learned path" (Some 11) (fire ());
  Rmt.Fault.with_plan ~seed:9
    [ (Rmt.Fault.Engine_trap, 1.0) ]
    (fun () ->
      for _ = 1 to 4 do
        Alcotest.(check (option int)) "trap serves the heuristic" (Some 999) (fire ())
      done);
  Alcotest.(check bool) "breaker opened under the fault storm" true
    (Rmt.Breaker.state breaker = Rmt.Breaker.Open);
  Alcotest.(check (option int)) "open breaker serves the heuristic faults-off"
    (Some 999) (fire ());
  let served =
    Rmt.Pipeline.fallback_served (Rmt.Control.pipeline control) ~hook:"h"
  in
  Alcotest.(check bool) "fallback count advanced" true (served >= 5);
  (* Fault-free probes after the backoff deadline re-close the breaker. *)
  now := Rmt.Breaker.retry_at breaker + 1;
  for _ = 1 to 2 do
    Alcotest.(check (option int)) "probe serves the learned path" (Some 11) (fire ())
  done;
  Alcotest.(check bool) "re-closed" true (Rmt.Breaker.state breaker = Rmt.Breaker.Closed);
  Alcotest.(check (option int)) "learned path restored" (Some 11) (fire ())

(* ---------------- Decode fuzz ---------------- *)

let test_decode_fuzz () =
  let s = Rmt.Fuzz.decode_fuzz ~seed:0xdec0de ~trials:150 () in
  Alcotest.(check bool) "enough mutations" true (s.Rmt.Fuzz.mutations >= 1000);
  Alcotest.(check int) "every mutation decoded or rejected" s.Rmt.Fuzz.mutations
    (s.Rmt.Fuzz.decoded_ok + s.Rmt.Fuzz.decoded_error);
  Alcotest.(check int) "pristine images roundtrip" s.Rmt.Fuzz.d_trials
    s.Rmt.Fuzz.roundtrips

(* ---------------- Chaos soak determinism ---------------- *)

let test_chaos_width_determinism () =
  let scenarios = 6 and events = 120 and seed = 0x5eed in
  let runs =
    Par.replay ~widths:[ 1; 4 ] (fun () ->
        fst (Rkd.Chaos.run ~seed ~events ~scenarios ()))
  in
  let seq = List.assoc 1 runs and par = List.assoc 4 runs in
  Alcotest.(check int) "no uncaught (seq)" 0 seq.Rkd.Chaos.total_uncaught;
  Alcotest.(check int) "no uncaught (par)" 0 par.Rkd.Chaos.total_uncaught;
  Alcotest.(check int) "every breaker re-closed (seq)" 0 seq.Rkd.Chaos.not_reclosed;
  Alcotest.(check int) "every breaker re-closed (par)" 0 par.Rkd.Chaos.not_reclosed;
  Alcotest.(check int) "bit-identical digest across pool widths"
    seq.Rkd.Chaos.digest par.Rkd.Chaos.digest

(* The default-seed soak: its prefetch scenarios serve stock fallbacks and
   reset the learned path's per-process state under faults, so the digest
   pins that recovery path too. *)
let test_chaos_pinned_digest () =
  let summary, _ = Rkd.Chaos.run ~scenarios:200 () in
  Alcotest.(check int) "no uncaught" 0 summary.Rkd.Chaos.total_uncaught;
  Alcotest.(check string) "digest" "3c78ab2702c40d2f"
    (Printf.sprintf "%016x" summary.Rkd.Chaos.digest)

(* A plan armed around the soak (as RKD_FAULTS arms one around rkdctl
   chaos) must not reach a scenario: each runs its faulted phase under its
   own plan and everything else fault-free, so the digest is the clean
   one.  At width 1 the scenarios run on the caller's domain, inside the
   caller's plan. *)
let test_chaos_ignores_ambient_plan () =
  let soak () = (fst (Rkd.Chaos.run ~scenarios:50 ())).Rkd.Chaos.digest in
  let clean = List.assoc 1 (Par.replay ~widths:[ 1 ] soak) in
  let ambient =
    List.assoc 1
      (Par.replay ~widths:[ 1 ] (fun () ->
           Rmt.Fault.with_plan ~seed:7
             (List.map (fun p -> (p, 0.05)) Rmt.Fault.all_points)
             soak))
  in
  Alcotest.(check string) "digest under an ambient plan"
    (Printf.sprintf "%016x" clean) (Printf.sprintf "%016x" ambient)

let suite =
  [ ( "fault",
      [ Alcotest.test_case "parse spec" `Quick test_fault_parse_spec;
        Alcotest.test_case "plan determinism" `Quick test_fault_plan_determinism;
        Alcotest.test_case "scoping" `Quick test_fault_scoping ] );
    ( "breaker",
      [ Alcotest.test_case "state machine" `Quick test_breaker_state_machine;
        Alcotest.test_case "backoff growth" `Quick test_breaker_backoff_growth;
        Alcotest.test_case "jitter determinism" `Quick test_breaker_jitter_determinism ] );
    ( "guardrail_window",
      [ Alcotest.test_case "window and reset" `Quick test_guardrail_window_and_reset ] );
    ( "traps",
      [ Alcotest.test_case "surface as values" `Quick test_trap_surfaces_as_value;
        Alcotest.test_case "messages" `Quick test_trap_messages;
        Alcotest.test_case "div/mod extremes" `Quick test_div_mod_extremes ] );
    ( "canary",
      [ Alcotest.test_case "promote" `Quick test_canary_promote;
        Alcotest.test_case "divergent rolled back" `Quick test_canary_divergent_rolled_back;
        Alcotest.test_case "rollback during grace" `Quick test_canary_rollback_during_grace;
        Alcotest.test_case "cancel" `Quick test_canary_cancel;
        Alcotest.test_case "trapping candidate contained" `Quick
          test_canary_trapping_candidate_contained ] );
    ( "protected_pipeline",
      [ Alcotest.test_case "fallback on open" `Quick test_pipeline_fallback_on_open ] );
    ( "decode_fuzz",
      [ Alcotest.test_case "mutations never escape" `Quick test_decode_fuzz ] );
    ( "chaos",
      [ Alcotest.test_case "width determinism" `Slow test_chaos_width_determinism;
        Alcotest.test_case "pinned digest" `Quick test_chaos_pinned_digest;
        Alcotest.test_case "ambient plan does not reach scenarios" `Quick
          test_chaos_ignores_ambient_plan ] ) ]
