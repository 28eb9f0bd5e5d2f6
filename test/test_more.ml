(* Second-pass coverage: vector-ISA instructions in full programs, verifier
   loop-escape rules, readahead window dynamics, mem-sim in-flight stalls,
   CFS sleepers, assembler name resolution, dataset/feature-rank odds and
   ends. *)

let run_prog ?(maps = []) ?ctxt prog =
  let control = Rmt.Control.create () in
  ignore maps;
  match Rmt.Control.install control prog with
  | Ok vm ->
    let ctxt = match ctxt with Some c -> c | None -> Rmt.Ctxt.create () in
    (Single.run vm ~ctxt ~now:(fun () -> 0)).Rmt.Interp.result
  | Error e -> Alcotest.failf "install failed: %s" e

(* ---------------- vector ISA in programs ---------------- *)

let test_vec_ld_map () =
  let open Rmt.Insn in
  (* fill map[10..13] then vector-load through a register base *)
  let prog =
    Rmt.Program.make ~name:"vmap" ~vmem_size:8
      ~map_specs:[ { Rmt.Map_store.kind = Rmt.Map_store.Array_map; capacity = 32 } ]
      [ Ld_imm (1, 10);
        Ld_imm (2, 7);
        Map_update (0, 1, 2);
        Ld_imm (1, 11);
        Ld_imm (2, 9);
        Map_update (0, 1, 2);
        Ld_imm (3, 10);
        Vec_ld_map (0, 0, 3, 2);
        Vec_argmax (0, 0, 2);
        Exit ]
  in
  (* vmem = [7; 9] -> argmax = 1 *)
  Alcotest.(check int) "argmax over map window" 1 (run_prog prog)

let test_vec_add_const_and_relu () =
  let open Rmt.Insn in
  let c =
    Rmt.Program.const_vector ~name:"bias"
      (Array.map Kml.Fixed.of_float [| -10.0; 2.0 |])
  in
  let prog =
    Rmt.Program.make ~name:"vac" ~vmem_size:4 ~consts:[ c ]
      [ Vec_ld_ctxt (0, 0, 2);
        Vec_i2f (0, 2);
        Vec_add_const (0, 0);
        Vec_relu (0, 2);
        Vec_ld_reg (1, 0);
        Vec_ld_reg (2, 1);
        Alu (Add, 1, 2);
        Mov (0, 1);
        Exit ]
  in
  (* x = (3, 4): +bias = (-7, 6); relu = (0, 6); sum = 6.0 in Q16.16 *)
  let ctxt = Rmt.Ctxt.of_list [ (0, 3); (1, 4) ] in
  Alcotest.(check int) "relu'd sum" (Kml.Fixed.to_raw (Kml.Fixed.of_float 6.0))
    (run_prog ~ctxt prog)

(* ---------------- verifier loop rules ---------------- *)

let helpers = Rmt.Helper.with_defaults ()

let verdict prog =
  Rmt.Verifier.check ~helpers ~model_costs:[||] prog

let test_branch_within_rep_ok () =
  let open Rmt.Insn in
  (* rep body with an internal forward branch and a "continue" to body end+1 *)
  let prog =
    Rmt.Program.make ~name:"loopbr"
      [ Ld_imm (1, 0);
        Ld_imm (2, 0);
        Rep (5, 3);
        Alu_imm (Add, 1, 1);
        Jcond_imm (Lt, 1, 3, 1); (* continue: skips the increment of r2 *)
        Alu_imm (Add, 2, 1);
        Mov (0, 2);
        Exit ]
  in
  (match verdict prog with
   | Ok _ -> ()
   | Error v -> Alcotest.failf "rejected: %s" (Rmt.Verifier.violation_to_string v));
  (* r1 counts 1..5; r2 increments only when r1 >= 3 at test time: r1=3,4,5 -> 3 *)
  Alcotest.(check int) "continue semantics" 3 (run_prog prog)

let test_branch_escaping_rep_rejected () =
  let open Rmt.Insn in
  let prog =
    Rmt.Program.make ~name:"escape"
      [ Ld_imm (1, 0);
        Rep (5, 2);
        Alu_imm (Add, 1, 1);
        Jcond_imm (Gt, 1, 3, 2); (* jumps past body end + 1: escapes *)
        Ld_imm (0, 0);
        Exit;
        Ld_imm (0, 1);
        Exit ]
  in
  match verdict prog with
  | Error (Rmt.Verifier.Jump_escapes_loop _) -> ()
  | Error v -> Alcotest.failf "wrong violation: %s" (Rmt.Verifier.violation_to_string v)
  | Ok _ -> Alcotest.fail "escaping branch accepted"

let test_nested_rep_ok () =
  let open Rmt.Insn in
  let prog =
    Rmt.Program.make ~name:"nested"
      [ Ld_imm (1, 0);
        Rep (4, 2);
        Rep (3, 1);
        Alu_imm (Add, 1, 1);
        Mov (0, 1);
        Exit ]
  in
  (match verdict prog with
   | Ok report ->
     (* 1 + (1 + (1 + 3·1)·? ) … just sanity: 4·3 body executions *)
     Alcotest.(check bool) "worst case accounts nesting" true
       (report.Rmt.Verifier.worst_case_steps >= 12)
   | Error v -> Alcotest.failf "rejected: %s" (Rmt.Verifier.violation_to_string v));
  Alcotest.(check int) "4*3 increments" 12 (run_prog prog)

(* ---------------- readahead window growth ---------------- *)

let test_readahead_window_doubles () =
  let ra = Ksim.Readahead.create () in
  let issue page = ra.Ksim.Prefetcher.on_access ~pid:1 ~page ~hit:false ~now:0 in
  ignore (issue 100);
  let w1 = issue 101 in
  (* window 4 from page 101: 102..105 *)
  Alcotest.(check (list int)) "initial window" [ 102; 103; 104; 105 ] w1;
  let w2 = issue 102 in
  (* window 8 from page 102 -> up to 110, minus already requested *)
  Alcotest.(check (list int)) "doubled, deduplicated" [ 106; 107; 108; 109; 110 ] w2

(* ---------------- mem-sim in-flight prefetch stall ---------------- *)

let test_partial_stall_accounting () =
  (* A prefetcher that fetches exactly the next page right before it is
     used: the demand access arrives while the read is in flight, so it
     stalls for the remainder, not the full service time. *)
  let prefetcher = Ksim.Prefetcher.next_n ~depth:1 in
  let trace = Ksim.Workload_mem.sequential ~pid:1 ~start:0 ~n:50 in
  let config =
    { Ksim.Mem_sim.cache_pages = 64;
      cpu_ns_per_access = 10_000;
      swap_service_ns = 50_000;
      max_prefetch_per_access = 4 }
  in
  let r = Ksim.Mem_sim.run ~config ~prefetcher trace in
  Alcotest.(check bool) "partial stalls occurred" true (r.Ksim.Mem_sim.partial_stalls > 0);
  Alcotest.(check int) "only the first access faults" 1 r.Ksim.Mem_sim.faults;
  (* each partial stall waits 50-10 = 40us at most *)
  Alcotest.(check bool) "stall less than full service" true
    (r.Ksim.Mem_sim.stall_ns < 50 * 50_000)

(* ---------------- CFS sleepers ---------------- *)

let test_cfs_sleeper_cycles () =
  let t =
    Ksim.Task.create ~id:1 ~burst_ns:3_000_000 ~sleep_ns:5_000_000
      ~total_work_ns:9_000_000 ()
  in
  let sched = Ksim.Cfs.create ~decider:Ksim.Cfs.heuristic_decider [ t ] in
  let makespan = Ksim.Cfs.run sched in
  (* 3 bursts of 3 ms with 2 sleeps of 5 ms in between; the wake tick
     overlaps the first tick of the next burst, so: 3 + 5 + 3 + 5 + 1 = 17ms *)
  Alcotest.(check int) "burst/sleep timeline" 17_000_000 makespan;
  Alcotest.(check bool) "finished" true (t.Ksim.Task.state = Ksim.Task.Finished)

(* ---------------- assembler name resolution ---------------- *)

let test_asm_helper_by_name () =
  let prog = Rmt.Asm.parse_exn "  ldimm r1, -5\n  call abs\n  exit\n" in
  Alcotest.(check int) "named helper resolves" 5 (run_prog prog)

(* ---------------- dataset & ranking odds ---------------- *)

let test_dataset_fold_and_column () =
  let ds =
    Kml.Dataset.of_samples ~n_features:2 ~n_classes:2
      [ { Kml.Dataset.features = [| 1; 10 |]; label = 0 };
        { Kml.Dataset.features = [| 2; 20 |]; label = 1 };
        { Kml.Dataset.features = [| 3; 30 |]; label = 1 } ]
  in
  let sum = Kml.Dataset.fold (fun acc s -> acc + s.Kml.Dataset.features.(0)) 0 ds in
  Alcotest.(check int) "fold" 6 sum

(* ---------------- control misc ---------------- *)

let test_control_reinstall_replaces () =
  let control = Rmt.Control.create () in
  let prog = Rmt.Program.make ~name:"p" [ Rmt.Insn.Ld_imm (0, 1); Rmt.Insn.Exit ] in
  let (_ : Rmt.Vm.t) = Result.get_ok (Rmt.Control.install control prog) in
  let prog2 = Rmt.Program.make ~name:"p" [ Rmt.Insn.Ld_imm (0, 2); Rmt.Insn.Exit ] in
  let vm = Result.get_ok (Rmt.Control.install control prog2) in
  Alcotest.(check int) "reinstalled version runs" 2
    (Single.run vm ~ctxt:(Rmt.Ctxt.create ()) ~now:(fun () -> 0)).Rmt.Interp.result;
  Alcotest.(check (list string)) "order deduplicated" [ "p" ]
    (Rmt.Control.program_names control)

let suite =
  [ ( "vector_isa",
      [ Alcotest.test_case "vec_ld_map" `Quick test_vec_ld_map;
        Alcotest.test_case "vec_add_const + relu" `Quick test_vec_add_const_and_relu ] );
    ( "verifier_loops",
      [ Alcotest.test_case "branch within rep" `Quick test_branch_within_rep_ok;
        Alcotest.test_case "escaping branch rejected" `Quick
          test_branch_escaping_rep_rejected;
        Alcotest.test_case "nested rep" `Quick test_nested_rep_ok ] );
    ( "readahead_window",
      [ Alcotest.test_case "doubles and dedups" `Quick test_readahead_window_doubles ] );
    ( "mem_sim_stalls",
      [ Alcotest.test_case "partial stall accounting" `Quick test_partial_stall_accounting ] );
    ( "cfs_sleepers",
      [ Alcotest.test_case "burst/sleep cycles" `Quick test_cfs_sleeper_cycles ] );
    ( "asm_names",
      [ Alcotest.test_case "helper by name" `Quick test_asm_helper_by_name ] );
    ( "kml_odds",
      [ Alcotest.test_case "dataset fold/column" `Quick test_dataset_fold_and_column ] );
    ( "control_misc",
      [ Alcotest.test_case "reinstall replaces" `Quick test_control_reinstall_replaces ] ) ]
