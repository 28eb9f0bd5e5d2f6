(* Lint validation corpus: the repo's real programs (must lint clean)
   plus seeded-defect mutants (must each be caught).

   The cascade and quickstart programs are rebuilt here with the same
   instruction sequences as their sources (examples/cascade.ml,
   examples/quickstart.ml) because examples are not a library; the
   prefetcher's, scheduler's, privacy ablation's and chaos harness's
   builders are exported and used directly.  If an example program
   changes shape, update its twin here — the corpus exists precisely to
   lint what the repo actually ships. *)

open Rmt

(* --- clean programs ------------------------------------------------ *)

let stage1 ~margin_raw =
  let n_features = 4 in
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
  Builder.emit b (Insn.Vec_ld_reg (1, n_features));
  Builder.jump_if b Insn.Ge ~reg:1 ~imm:margin_raw ~target:positive;
  Builder.jump_if b Insn.Gt ~reg:1 ~imm:(-margin_raw) ~target:escalate;
  Builder.emit b (Insn.Ld_imm (0, 0));
  Builder.emit b Insn.Exit;
  Builder.place b positive;
  Builder.emit b (Insn.Ld_imm (0, 1));
  Builder.emit b Insn.Exit;
  Builder.place b escalate;
  Builder.emit b (Insn.Tail_call 0);
  Builder.finish b ()

let stage2 () =
  let n_features = 4 in
  let b = Builder.create ~name:"stage2_tree" ~vmem_size:8 () in
  let _slot = Builder.add_model b ~n_features in
  Builder.emit b (Insn.Vec_ld_ctxt (0, 0, n_features));
  Builder.emit b (Insn.Call_ml (0, 0, n_features));
  Builder.emit b Insn.Exit;
  Builder.finish b ()

let hot_or_cold () =
  Asm.parse_exn
    {|
.name hot_or_cold
.vmem 4
.map lru 64
.cap guard 0 1
  ldctxtk r1, 0
  mlookup r2, map0, r1
  addi r2, 1
  mupdate map0, r1, r2
  jgti r2, 3, hot
  ldimm r0, 0
  exit
hot:
  ldimm r0, 1
  exit
|}

let clean () =
  let params = Rkd.Prefetch_rmt.default_params in
  [ ("pf_collect", Rkd.Prefetch_rmt.build_collect_program params);
    ("pf_predict", Rkd.Prefetch_rmt.build_predict_program params);
    ("lb_migrate_contig", Rkd.Sched_rmt.build_program ~keep:(Array.init 6 Fun.id));
    ("lb_migrate_sparse", Rkd.Sched_rmt.build_program ~keep:[| 0; 2; 5 |]);
    ("stage1_linear", stage1 ~margin_raw:(Kml.Fixed.to_raw (Kml.Fixed.of_int 6)));
    ("stage2_tree", stage2 ());
    ("hot_or_cold", hot_or_cold ());
    ("agg_query",
     Rkd.Experiment.privacy_program ~helper_id:Helper.ctxt_sum_range ~budget_milli:100_000);
    ("chaos_prog", Rkd.Chaos.build_simple ~bias:1) ]

(* --- seeded-defect mutants ----------------------------------------- *)

(* [Program.make] defaults to a 64-word scratchpad, which the
   oversized-vmem rule (rightly) flags on scalar code — pin it to 0 so
   each mutant carries exactly its one seeded smell. *)
let prog name ?(vmem_size = 0) ?consts ?map_specs ?model_arity ?n_prog_slots ?capabilities
    code =
  Program.make ~name ~vmem_size ?consts ?map_specs ?model_arity ?n_prog_slots ?capabilities
    code

let mutants () =
  [ (* a context read massaged into r1, then never used *)
    ( "m01_dead_store",
      "dead-store",
      prog "m01_dead_store"
        [ Insn.Ld_ctxt_k (1, 0); Insn.Alu_imm (Insn.Add, 1, 7); Insn.Ld_imm (0, 0); Insn.Exit ]
    );
    (* r2 written twice, first value unread *)
    ( "m02_dead_store_overwrite",
      "dead-store",
      prog "m02_dead_store_overwrite"
        [ Insn.Ld_imm (2, 5); Insn.Ld_imm (2, 6); Insn.Mov (0, 2); Insn.Exit ] );
    (* an unconditional jump strands one instruction *)
    ( "m03_unreachable",
      "unreachable",
      prog "m03_unreachable"
        [ Insn.Ld_imm (0, 1); Insn.Jmp 1; Insn.Ld_imm (0, 2); Insn.Exit ] );
    (* 5 > 0: the fall-through arm can never run *)
    ( "m04_branch_always",
      "branch-always",
      prog "m04_branch_always"
        [ Insn.Ld_imm (1, 5);
          Insn.Jcond_imm (Insn.Gt, 1, 0, 1);
          Insn.Ld_imm (0, 9);
          Insn.Ld_imm (0, 1);
          Insn.Exit ] );
    (* 3 < 0 is infeasible: the branch is a constant fall-through *)
    ( "m05_branch_never",
      "branch-never",
      prog "m05_branch_never"
        [ Insn.Ld_imm (0, 7);
          Insn.Ld_imm (1, 3);
          Insn.Jcond_imm (Insn.Lt, 1, 0, 1);
          Insn.Ld_imm (0, 1);
          Insn.Exit ] );
    (* zero guard over a division eval_alu already makes total *)
    ( "m06_redundant_div_guard",
      "redundant-guard",
      prog "m06_redundant_div_guard"
        [ Insn.Ld_ctxt_k (1, 0);
          Insn.Ld_ctxt_k (2, 1);
          Insn.Jcond_imm (Insn.Eq, 2, 0, 1);
          Insn.Alu (Insn.Div, 1, 2);
          Insn.Mov (0, 1);
          Insn.Exit ] );
    ( "m07_redundant_mod_guard",
      "redundant-guard",
      prog "m07_redundant_mod_guard"
        [ Insn.Ld_ctxt_k (1, 0);
          Insn.Ld_ctxt_k (2, 1);
          Insn.Jcond_imm (Insn.Eq, 2, 0, 1);
          Insn.Alu (Insn.Mod, 1, 2);
          Insn.Mov (0, 1);
          Insn.Exit ] );
    (* negative-key guard the engines already apply to dynamic keys *)
    ( "m08_redundant_key_guard",
      "redundant-guard",
      prog "m08_redundant_key_guard"
        [ Insn.Ld_imm (2, 0);
          Insn.Ld_ctxt_k (1, 0);
          Insn.Jcond_imm (Insn.Lt, 1, 0, 1);
          Insn.Ld_ctxt (2, 1);
          Insn.Mov (0, 2);
          Insn.Exit ] );
    (* tainted value stored to a map, then read back "clean" *)
    ( "m09_unclean_map_read",
      "unclean-map-read",
      prog "m09_unclean_map_read"
        ~map_specs:[ { Map_store.kind = Map_store.Hash_map; capacity = 64 } ]
        ~capabilities:[ Program.Privacy_budget { epsilon_milli = 1000 } ]
        [ Insn.Ld_ctxt_k (1, 0);
          Insn.Ld_imm (2, 1);
          Insn.Map_update (0, 2, 1);
          Insn.Map_lookup (3, 0, 2);
          Insn.Mov (0, 3);
          Insn.Exit ] );
    (* declared pool entries and slots nothing references *)
    ( "m10_unused_const",
      "unused-const",
      prog "m10_unused_const"
        ~consts:[ Program.const_vector ~name:"w" (Array.map Kml.Fixed.of_int [| 1; 2 |]) ]
        [ Insn.Ld_imm (0, 0); Insn.Exit ] );
    ( "m11_unused_map",
      "unused-map",
      prog "m11_unused_map"
        ~map_specs:[ { Map_store.kind = Map_store.Hash_map; capacity = 16 } ]
        [ Insn.Ld_imm (0, 0); Insn.Exit ] );
    ( "m12_unused_model",
      "unused-model",
      prog "m12_unused_model" ~model_arity:[ 4 ] [ Insn.Ld_imm (0, 0); Insn.Exit ] );
    ( "m13_unused_prog_slot",
      "unused-prog-slot",
      prog "m13_unused_prog_slot" ~n_prog_slots:1 [ Insn.Ld_imm (0, 0); Insn.Exit ] );
    (* a scalar program pinning a 128-word scratchpad it never touches *)
    ( "m14_oversized_vmem",
      "oversized-vmem",
      prog "m14_oversized_vmem" ~vmem_size:128 [ Insn.Ld_imm (0, 0); Insn.Exit ] ) ]
