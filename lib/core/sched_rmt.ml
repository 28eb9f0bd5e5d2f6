type t = {
  control : Rmt.Control.t;
  table : Rmt.Table.t;
  vm : Rmt.Vm.t;
  ctxt : Rmt.Ctxt.t;
  keep : int array;
  breaker : Rmt.Breaker.t;
  mutable decisions : int;
}

(* Migration-decision program: gather the (possibly reduced) feature block
   from the execution context into the vector scratchpad, consult the
   model, return its class (1 = migrate). *)
let build_program ~keep =
  let open Rmt in
  let k = Array.length keep in
  let b = Builder.create ~name:"lb_migrate" ~vmem_size:(Stdlib.max 1 k) () in
  let _slot = Builder.add_model b ~n_features:k in
  Builder.add_capability b (Program.Guarded { lo = 0; hi = 1 });
  let contiguous =
    Array.length keep > 0
    && Array.for_all Fun.id (Array.mapi (fun i key -> key = keep.(0) + i) keep)
  in
  if contiguous then
    Builder.emit b (Insn.Vec_ld_ctxt (0, Hooks.key_feature_base + keep.(0), k))
  else
    Array.iteri
      (fun j key ->
        Builder.emit b (Insn.Ld_ctxt_k (1, Hooks.key_feature_base + key));
        Builder.emit b (Insn.Vec_st_reg (j, 1)))
      keep;
  Builder.emit b (Insn.Call_ml (0, 0, k));
  Builder.emit b Insn.Exit;
  Builder.finish b ()

let create ?keep ~model () =
  let keep =
    match keep with
    | Some k -> Array.copy k
    | None -> Array.init Ksim.Lb_features.n_features Fun.id
  in
  Array.iter
    (fun key ->
      if key < 0 || key >= Ksim.Lb_features.n_features then
        invalid_arg "Sched_rmt.create: feature index out of range")
    keep;
  if Rmt.Model_store.n_features model <> Array.length keep then
    invalid_arg "Sched_rmt.create: model arity must match the kept feature count";
  let control = Rmt.Control.create () in
  let (_ : Rmt.Model_store.handle) =
    Rmt.Control.register_model control ~name:"lb_model" model
  in
  let vm =
    match
      Rmt.Control.install control ~model_names:[ "lb_model" ]
        (build_program ~keep)
    with
    | Ok vm -> vm
    | Error e -> invalid_arg ("Sched_rmt: program rejected: " ^ e)
  in
  let table =
    Rmt.Control.create_table control ~name:"lb_migrate_tab" ~match_keys:[||]
      ~default:(Rmt.Table.Run vm)
  in
  Rmt.Control.attach control ~hook:Hooks.can_migrate_task table;
  (* Failsafe wiring (DESIGN.md section 12): the fallback is literally the
     stock CFS [can_migrate_task] decision, which the decider writes into
     the context under [key_heuristic] before every firing. *)
  let breaker =
    Rmt.Control.protect control ~hook:Hooks.can_migrate_task ~programs:[ "lb_migrate" ]
      ~fallback:(fun ctxt -> Rmt.Ctxt.get ctxt Hooks.key_heuristic)
      ()
  in
  { control; table; vm; ctxt = Rmt.Ctxt.create (); keep; breaker; decisions = 0 }

let decider t ~features ~heuristic =
  t.decisions <- t.decisions + 1;
  Array.iteri (fun i v -> Rmt.Ctxt.set t.ctxt (Hooks.key_feature_base + i) v) features;
  Rmt.Ctxt.set t.ctxt Hooks.key_heuristic (if heuristic then 1 else 0);
  match Rmt.Control.fire t.control ~hook:Hooks.can_migrate_task ~ctxt:t.ctxt with
  | Some cls -> cls = 1
  | None -> false

let update_model t model = Rmt.Control.update_model t.control ~name:"lb_model" model
let control t = t.control

type stats = {
  decisions : int;
  vm_steps : int;
  model_invocations : int;
  ctxt_reads : int;
  reads_per_decision : float;
  fallback_decisions : int;
  breaker_trips : int;
}

let stats t =
  let model_invocations =
    match Rmt.Model_store.find (Rmt.Control.models t.control) "lb_model" with
    | Some h -> Rmt.Model_store.invocations (Rmt.Control.models t.control) h
    | None -> 0
  in
  ignore t.table;
  { decisions = t.decisions;
    vm_steps = Rmt.Vm.total_steps t.vm;
    model_invocations;
    ctxt_reads = Rmt.Ctxt.reads t.ctxt;
    reads_per_decision =
      (if t.decisions = 0 then 0.0
       else float_of_int (Rmt.Ctxt.reads t.ctxt) /. float_of_int t.decisions);
    fallback_decisions =
      Rmt.Pipeline.fallback_served (Rmt.Control.pipeline t.control)
        ~hook:Hooks.can_migrate_task;
    breaker_trips = Rmt.Breaker.opens t.breaker }

let breaker t = t.breaker
