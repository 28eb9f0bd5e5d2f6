(* Hot-datapath tests: the flat Ctxt store and the Table against naive
   oracles, a structured interpreter/JIT differential over the full
   ISA (maps, helpers, ML ops, privacy), steady-state allocation checks,
   and the JIT unit cache keyed by loaded-instance identity. *)

let now0 () = 0

(* ---------------- Ctxt vs. hashtable oracle ---------------- *)

(* Random op sequences over keys 0..300, crossing the dense/sparse boundary
   of the flat store; a plain Hashtbl (absent keys read 0) is the oracle. *)
let prop_ctxt_matches_oracle =
  QCheck2.Test.make ~name:"ctxt = hashtbl oracle across dense/sparse keys" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Kml.Rng.create seed in
      let ri n = Kml.Rng.int rng n in
      let ctxt = Rmt.Ctxt.create () in
      let oracle = Hashtbl.create 64 in
      let ok = ref true in
      for _ = 1 to 400 do
        let key = ri 300 in
        if ri 2 = 0 then begin
          let v = ri 1000 - 500 in
          Rmt.Ctxt.set ctxt key v;
          Hashtbl.replace oracle key v
        end
        else begin
          let expected = match Hashtbl.find_opt oracle key with Some v -> v | None -> 0 in
          if Rmt.Ctxt.get ctxt key <> expected then ok := false
        end
      done;
      let bindings t = List.sort compare (Rmt.Ctxt.fold (fun k v acc -> (k, v) :: acc) t []) in
      let oracle_bindings =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle [])
      in
      !ok && bindings ctxt = oracle_bindings)

(* Keys 120..139 straddle the dense region boundary; a copy holds the
   same bindings and shares no storage with the original on either side. *)
let test_ctxt_range_across_boundary () =
  let ctxt = Rmt.Ctxt.create () in
  let values = Array.init 20 (fun i -> i * 3 - 10) in
  Array.iteri (fun i v -> Rmt.Ctxt.set ctxt (120 + i) v) values;
  let read c = Array.init 20 (fun i -> Rmt.Ctxt.get c (120 + i)) in
  Alcotest.(check (array int)) "range round-trips across dense boundary" values (read ctxt);
  let clone = Rmt.Ctxt.copy ctxt in
  Alcotest.(check (array int)) "copy holds the range" values (read clone);
  Rmt.Ctxt.set clone 125 1;
  Rmt.Ctxt.set clone 135 1;
  Alcotest.(check (array int)) "original untouched by writes to the copy" values (read ctxt)

(* ---------------- Table vs. priority spec model ---------------- *)

let random_pattern ri =
  match ri 7 with
  | 0 | 1 | 2 -> Rmt.Table.Eq (ri 4)
  | 3 | 4 -> Rmt.Table.Any
  | 5 -> Rmt.Table.Mask { value = ri 8; mask = ri 8 }
  | _ ->
    let lo = ri 4 in
    Rmt.Table.Between (lo, lo + ri 3)

let prop_table_matches_spec =
  QCheck2.Test.make ~name:"table lookup = priority spec model" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Kml.Rng.create seed in
      let ri n = Kml.Rng.int rng n in
      let arity = 1 + ri 3 in
      let table =
        Rmt.Table.create ~name:"prop"
          ~match_keys:(Array.init arity (fun i -> i))
          ~default:(Rmt.Table.Const (-1))
      in
      (* The spec: live entries as (id, priority, patterns), in insertion
         order; of those that match, the highest priority wins, then the
         earliest insert. *)
      let live = ref [] in
      let insert_random () =
        let priority = ri 3 in
        let patterns = Array.init arity (fun _ -> random_pattern ri) in
        let id = Rmt.Table.insert table ~priority ~patterns (Rmt.Table.Const (ri 100)) in
        live := !live @ [ (id, priority, patterns) ]
      in
      for _ = 1 to ri 16 do
        insert_random ()
      done;
      let spec fields =
        List.fold_left
          (fun best (id, priority, patterns) ->
            let matches = Array.for_all2 Rmt.Table.pattern_matches patterns fields in
            match best with
            | Some (_, p) when p >= priority -> best
            | _ when matches -> Some (id, priority)
            | _ -> best)
          None !live
        |> Option.map fst
      in
      let agree () =
        let ctxt = Rmt.Ctxt.create () in
        for k = 0 to arity - 1 do
          if ri 4 > 0 then Rmt.Ctxt.set ctxt k (ri 6)
        done;
        let fields = Array.init arity (Rmt.Ctxt.get ctxt) in
        Rmt.Table.lookup_entry table ~ctxt = spec fields
      in
      let ok = ref true in
      for _ = 1 to 20 do
        if not (agree ()) then ok := false
      done;
      (* Entries inserted after lookups have run take effect at once. *)
      for _ = 1 to 1 + ri 4 do
        insert_random ()
      done;
      for _ = 1 to 20 do
        if not (agree ()) then ok := false
      done;
      !ok)

let test_table_priority_and_ties () =
  (* Eq/Any entries of different wildcard shapes plus a Mask entry, all
     matching the same context: highest priority must win, and insertion
     order must break ties. *)
  let table =
    Rmt.Table.create ~name:"prio" ~match_keys:[| 0; 1 |] ~default:(Rmt.Table.Const (-1))
  in
  let ctxt = Rmt.Ctxt.of_list [ (0, 5); (1, 7) ] in
  let look () = Single.lookup table ~ctxt ~now:now0 in
  let insert priority patterns v =
    ignore (Rmt.Table.insert table ~priority ~patterns (Rmt.Table.Const v) : Rmt.Table.entry_id)
  in
  Alcotest.(check int) "default" (-1) (look ());
  insert 1 [| Rmt.Table.Any; Rmt.Table.Any |] 10;
  Alcotest.(check int) "any/any" 10 (look ());
  insert 2 [| Rmt.Table.Eq 5; Rmt.Table.Eq 7 |] 30;
  Alcotest.(check int) "higher priority wins" 30 (look ());
  insert 2 [| Rmt.Table.Eq 5; Rmt.Table.Any |] 20;
  Alcotest.(check int) "earlier insertion breaks the tie" 30 (look ());
  insert 3 [| Rmt.Table.Mask { value = 1; mask = 1 }; Rmt.Table.Any |] 40;
  Alcotest.(check int) "mask entry wins on priority" 40 (look ())

(* ---------------- Structured interpreter/JIT differential ----------- *)

(* Verified-by-construction program generator covering much more of the ISA
   than the fuzz generator in Test_rmt_vm: maps (hash/array/ring), helper
   calls (with the r1-r5 clobber contract respected by reinitializing after
   every call), nested Rep loops, skip-over branches, the vector/ML ISA,
   and optionally a privacy budget with DP-charged aggregate helpers.  No
   QCheck assume: every generated program must install, so the property
   genuinely runs on every trial. *)
let gen_program rng =
  let open Rmt.Insn in
  let ri n = Kml.Rng.int rng n in
  let with_maps = ri 2 = 0 in
  let with_ml = ri 3 = 0 in
  let with_privacy = ri 3 = 0 in
  let dreg () = 1 + ri 7 in
  let sreg () = ri 8 in
  let alu_ops = [| Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr; Min; Max |] in
  let conds = [| Eq; Ne; Lt; Le; Gt; Ge |] in
  (* Call and Call_ml clobber r1-r5: restore the all-initialized invariant
     immediately so any later read passes the verifier's dataflow check. *)
  let reinit () = List.init 5 (fun i -> Ld_imm (i + 1, ri 40 - 20)) in
  let simple_block () =
    match ri (if with_maps then 12 else 8) with
    | 0 -> [ Ld_imm (dreg (), ri 200 - 100) ]
    | 1 -> [ Mov (dreg (), sreg ()) ]
    | 2 -> [ Alu (alu_ops.(ri 12), dreg (), sreg ()) ]
    | 3 -> [ Alu_imm (alu_ops.(ri 12), dreg (), ri 64 - 32) ]
    | 4 -> [ Ld_ctxt_k (dreg (), ri 12) ]
    | 5 -> [ St_ctxt (ri 12, sreg ()) ]
    | 6 -> [ Ld_ctxt (dreg (), sreg ()) ]
    | 7 ->
      let rk = dreg () in
      [ Alu_imm (And, rk, 63); St_ctxt_r (rk, sreg ()) ]
    | 8 ->
      let rk = dreg () in
      [ Alu_imm (And, rk, 15); Map_update (0, rk, sreg ()) ]
    | 9 -> [ Map_lookup (dreg (), ri 2, sreg ()) ]
    | 10 -> [ Ring_push (2, sreg ()) ]
    | _ ->
      let rk = dreg () in
      [ Alu_imm (And, rk, 15); Map_update (1, rk, sreg ()) ]
  in
  (* Guard-path probes: unmasked dynamic ctxt keys (exercises the negative-
     key guard) and Vec_ld_map windows both unproven (short reads past the
     array end read 0) and masked-in-bounds. *)
  let guard_block () =
    if not with_maps then [ St_ctxt_r (sreg (), sreg ()) ]
    else
      match ri 3 with
      | 0 -> [ St_ctxt_r (sreg (), sreg ()) ]
      | 1 -> [ Vec_ld_map (0, 1, sreg (), 4) ]
      | _ ->
        let rk = dreg () in
        [ Alu_imm (And, rk, 7); Vec_ld_map (0, 1, rk, 4) ]
  in
  let call_block () =
    match ri (if with_privacy then 5 else 4) with
    | 0 -> Call Rmt.Helper.abs_val :: reinit ()
    | 1 -> Call Rmt.Helper.sign :: reinit ()
    | 2 -> Call Rmt.Helper.log2_floor :: reinit ()
    | 3 ->
      Ld_imm (2, ri 20 - 10) :: Ld_imm (3, ri 20) :: Call Rmt.Helper.clamp3 :: reinit ()
    | _ ->
      (* DP-charged aggregate; repeated calls exhaust the budget so
         privacy_denied is exercised on both engines *)
      Ld_imm (1, ri 8) :: Ld_imm (2, 1 + ri 4) :: Call Rmt.Helper.ctxt_sum_range :: reinit ()
  in
  let ml_block () =
    match ri 3 with
    | 0 -> Vec_ld_ctxt (0, ri 8, 3) :: Call_ml (0, 0, 3) :: reinit ()
    | 1 ->
      [ Vec_ld_ctxt (0, ri 8, 3);
        Vec_i2f (0, 3);
        Mat_mul (3, 0, 0);
        Vec_add_const (3, 1);
        Vec_relu (3, 2);
        Vec_argmax (6, 3, 2) ]
    | _ ->
      let rd = dreg () in
      [ Vec_st_reg (5, sreg ()); Vec_ld_reg (rd, 5) ]
  in
  let rec body_block depth =
    let pick = ri 100 in
    if pick < 55 then simple_block ()
    else if pick < 70 then call_block ()
    else if pick < 82 && with_ml then ml_block ()
    else if pick < 92 && depth < 2 then rep_block (depth + 1)
    else simple_block ()
  and rep_block depth =
    let body = List.concat (List.init (1 + ri 2) (fun _ -> body_block depth)) in
    Rep (1 + ri 4, List.length body) :: body
  in
  let branch_block () =
    let body = List.concat (List.init (1 + ri 2) (fun _ -> simple_block ())) in
    Jcond_imm (conds.(ri 6), sreg (), ri 20 - 10, List.length body) :: body
  in
  let top_block () =
    match ri 11 with
    | 0 | 1 | 2 | 3 -> simple_block ()
    | 4 | 5 -> branch_block ()
    | 6 | 7 -> rep_block 1
    | 8 -> call_block ()
    | 9 -> guard_block ()
    | _ -> if with_ml then ml_block () else simple_block ()
  in
  let blocks = List.concat (List.init (3 + ri 6) (fun _ -> top_block ())) in
  let prelude = List.init 8 (fun r -> Ld_imm (r, (r * 7) - 11)) in
  let code = prelude @ blocks @ [ Mov (0, dreg ()); Exit ] in
  let w =
    Rmt.Program.const_matrix ~name:"w" ~rows:2 ~cols:3
      (Array.map Kml.Fixed.of_float [| 1.0; -2.0; 0.5; -1.0; 1.5; 2.0 |])
  in
  let b = Rmt.Program.const_vector ~name:"b" (Array.map Kml.Fixed.of_float [| 0.25; -1.0 |]) in
  let program =
    Rmt.Program.make ~name:"structured" ~vmem_size:8
      ~consts:(if with_ml then [ w; b ] else [])
      ~map_specs:
        (if with_maps then
           [ { Rmt.Map_store.kind = Rmt.Map_store.Hash_map; capacity = 32 };
             { Rmt.Map_store.kind = Rmt.Map_store.Array_map; capacity = 16 };
             { Rmt.Map_store.kind = Rmt.Map_store.Ring_buffer; capacity = 8 } ]
         else [])
      ~model_arity:(if with_ml then [ 3 ] else [])
      ~capabilities:
        (* The verifier's information-flow check requires a budget whenever
           context-derived values can reach a map/ring sink, which the
           simple_block map cases freely do. *)
        (if with_privacy || with_maps then
           [ Rmt.Program.Privacy_budget { epsilon_milli = 150 + ri 200 } ]
         else [])
      code
  in
  let fn_model =
    Rmt.Model_store.Fn
      { n_features = 3;
        cost = Kml.Model_cost.zero;
        f = (fun fs -> (fs.(0) + (2 * fs.(1)) - fs.(2)) land 7) }
  in
  let models = if with_ml then [ ("m", fn_model) ] else [] in
  (program, models, List.map fst models)

let structured_trials = 1000

let prop_structured_differential =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "interp = jit on %d structured programs (maps/helpers/ml/privacy)"
         structured_trials)
    ~count:structured_trials
    QCheck2.Gen.(int_range 0 1_000_000_000)
    (fun seed ->
      let rng = Kml.Rng.create seed in
      let program, models, model_names = gen_program rng in
      let ctxt_bindings = List.init 12 (fun k -> (k, Kml.Rng.int rng 100 - 20)) in
      let observe engine =
        let control = Rmt.Control.create ~engine () in
        List.iter
          (fun (name, model) ->
            let (_ : Rmt.Model_store.handle) =
              Rmt.Control.register_model control ~name model
            in
            ())
          models;
        match Rmt.Control.install control ~model_names program with
        | Error e ->
          (* the generator is verified-by-construction; a rejection is a
             test bug, not a discard *)
          Alcotest.failf "generated program failed to install: %s" e
        | Ok vm ->
          let ctxt = Rmt.Ctxt.of_list ctxt_bindings in
          (* run twice: the second run exercises scratch-buffer reuse *)
          let o1 = Single.run vm ~ctxt ~now:now0 in
          let o2 = Single.run vm ~ctxt ~now:now0 in
          ( (o1.Rmt.Interp.result, o1.Rmt.Interp.steps, o1.Rmt.Interp.privacy_denied),
            (o2.Rmt.Interp.result, o2.Rmt.Interp.steps, o2.Rmt.Interp.privacy_denied),
            List.sort compare (Rmt.Ctxt.fold (fun k v acc -> (k, v) :: acc) ctxt []) )
      in
      observe Rmt.Vm.Interpreted = observe Rmt.Vm.Jit_compiled)

(* ---------------- Steady-state allocation ---------------- *)

(* Gc.minor_words itself returns a boxed float, so the measured delta over
   10_000 invocations carries a few words of measurement noise; any real
   per-invocation allocation would cost >= 2 words x 10_000.  A single
   event is a batch of one, which skips the SoA kernel. *)
let test_invoke_zero_alloc () =
  let open Rmt.Insn in
  let program =
    Rmt.Program.make ~name:"hot"
      ~map_specs:[ { Rmt.Map_store.kind = Rmt.Map_store.Hash_map; capacity = 64 } ]
      [ Ld_ctxt_k (1, 3);
        Alu_imm (And, 1, 31);
        Ld_imm (2, 7);
        Map_update (0, 1, 2);
        Map_lookup (4, 0, 1);
        Mov (1, 4);
        Call Rmt.Helper.abs_val;
        St_ctxt (5, 0);
        Rep (8, 1);
        Alu_imm (Add, 0, 1);
        Exit ]
  in
  let control = Rmt.Control.create ~engine:Rmt.Vm.Jit_compiled () in
  let vm =
    match Rmt.Control.install control program with
    | Ok vm -> vm
    | Error e -> Alcotest.failf "install: %s" e
  in
  let b = Single.batch (Rmt.Ctxt.of_list [ (3, 12) ]) in
  for _ = 1 to 100 do
    Rmt.Vm.invoke_batch vm b ~now:now0
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Rmt.Vm.invoke_batch vm b ~now:now0
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "JIT invoke allocated %.0f minor words over 10k steady-state runs" delta

let test_table_lookup_zero_alloc () =
  let table =
    Rmt.Table.create ~name:"hot" ~match_keys:[| 0; 1 |] ~default:(Rmt.Table.Const 0)
  in
  for a = 0 to 15 do
    ignore
      (Rmt.Table.insert table ~patterns:[| Rmt.Table.Eq a; Rmt.Table.Any |]
         (Rmt.Table.Const a))
  done;
  ignore
    (Rmt.Table.insert table ~patterns:[| Rmt.Table.Between (100, 200); Rmt.Table.Any |]
       (Rmt.Table.Const 99));
  let b = Single.batch (Rmt.Ctxt.of_list [ (0, 7); (1, 3) ]) in
  for _ = 1 to 100 do
    Rmt.Table.lookup_batch table b ~now:now0
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Rmt.Table.lookup_batch table b ~now:now0
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "table lookup allocated %.0f minor words over 10k runs" delta

(* Decision-tree inference walks a structure-of-arrays mirror of the tree
   (lib/kml/decision_tree.ml), so steady-state predict must not allocate
   either — it sits on the same hot path as the JIT datapath above. *)
let test_tree_predict_zero_alloc () =
  let rng = Kml.Rng.create 7 in
  let samples =
    List.init 400 (fun _ ->
        let a = Kml.Rng.int rng 100 and b = Kml.Rng.int rng 100 and c = Kml.Rng.int rng 100 in
        let label = if a + b > 100 then 1 else if c > 60 then 2 else 0 in
        { Kml.Dataset.features = [| a; b; c |]; label })
  in
  let ds = Kml.Dataset.of_samples ~n_features:3 ~n_classes:3 samples in
  let tree = Kml.Decision_tree.train ds in
  if Kml.Decision_tree.depth tree < 2 then Alcotest.fail "expected a non-trivial tree";
  let features = [| 55; 60; 30 |] in
  for _ = 1 to 100 do
    ignore (Kml.Decision_tree.predict tree features)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Kml.Decision_tree.predict tree features)
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "tree predict allocated %.0f minor words over 10k runs" delta

(* ---------------- JIT unit cache identity ---------------- *)

(* Reinstalling a program under the same name must not let the JIT serve
   the stale unit: the cache is keyed by the loaded instance's uid. *)
let test_jit_unit_cache_by_uid () =
  let open Rmt.Insn in
  let control = Rmt.Control.create ~engine:Rmt.Vm.Jit_compiled () in
  let caller = Rmt.Program.make ~name:"caller" ~n_prog_slots:1 [ Tail_call 0 ] in
  let callee v = Rmt.Program.make ~name:"callee" [ Ld_imm (0, v); Exit ] in
  let (_ : Rmt.Vm.t) = Result.get_ok (Rmt.Control.install control (callee 7)) in
  let caller_vm = Result.get_ok (Rmt.Control.install control caller) in
  let bind () =
    match Rmt.Control.bind_tail_call control ~caller:"caller" ~slot:0 ~callee:"callee" with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  bind ();
  let invoke () = Single.result caller_vm ~ctxt:(Rmt.Ctxt.create ()) ~now:now0 in
  Alcotest.(check int) "first callee" 7 (invoke ());
  Alcotest.(check int) "caller + callee units" 2 (Rmt.Vm.jit_units caller_vm);
  (* replace the same-named program and rebind *)
  let (_ : Rmt.Vm.t) = Result.get_ok (Rmt.Control.install control (callee 9)) in
  bind ();
  Alcotest.(check int) "rebound callee, not the stale unit" 9 (invoke ());
  Alcotest.(check int) "distinct unit per loaded instance" 3 (Rmt.Vm.jit_units caller_vm)

let suite =
  [ ( "datapath",
      [ QCheck_alcotest.to_alcotest prop_ctxt_matches_oracle;
        Alcotest.test_case "ctxt range across dense boundary" `Quick
          test_ctxt_range_across_boundary;
        QCheck_alcotest.to_alcotest prop_table_matches_spec;
        Alcotest.test_case "table priority and ties" `Quick test_table_priority_and_ties;
        QCheck_alcotest.to_alcotest prop_structured_differential;
        Alcotest.test_case "jit invoke is allocation-free" `Quick
          test_invoke_zero_alloc;
        Alcotest.test_case "table lookup is allocation-free" `Quick
          test_table_lookup_zero_alloc;
        Alcotest.test_case "tree predict is allocation-free" `Quick
          test_tree_predict_zero_alloc;
        Alcotest.test_case "jit unit cache keyed by uid" `Quick test_jit_unit_cache_by_uid ] ) ]
