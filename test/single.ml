(* One event through the datapath's only entry, a batch of one: helpers
   for tests that run a single context at a time. *)

let batch ctxt =
  let b = Rmt.Batch.create ~capacity:1 in
  b.Rmt.Batch.ctxts.(0) <- ctxt;
  b

(* Run [vm] once over [ctxt]; a trap contained in the slot is re-raised. *)
let run vm ~ctxt ~now =
  let b = batch ctxt in
  Rmt.Vm.invoke_batch vm b ~now;
  match b.Rmt.Batch.traps.(0) with
  | Some trap -> raise (Rmt.Interp.Trap trap)
  | None ->
    { Rmt.Interp.result = b.Rmt.Batch.results.(0);
      steps = b.Rmt.Batch.steps.(0);
      privacy_denied = b.Rmt.Batch.denied.(0) }

let result vm ~ctxt ~now = (run vm ~ctxt ~now).Rmt.Interp.result

let lookup table ~ctxt ~now =
  let b = batch ctxt in
  Rmt.Table.lookup_batch table b ~now;
  b.Rmt.Batch.results.(0)
