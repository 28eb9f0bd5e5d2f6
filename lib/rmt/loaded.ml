type t = {
  prog : Program.t;
  uid : int;
  maps : Map_store.t array;
  models : Model_store.handle array;
  store : Model_store.t;
  helpers : Helper.t;
  prog_table : t option array;
  privacy : Privacy.account option;
  guardrail : Guardrail.t option;
  rng : Kml.Rng.t;
  consts : int array array;
  vmem : int array;
  env : Helper.env;
  call_args : int array array;
  ml_args : int array array;
  matmul_src : int array;
  mutable runs : int;
  mutable total_steps : int;
}

let next_uid = ref 0

let link ?(rng = Kml.Rng.create 0x5eed) ~store ~helpers ~maps ~models
    (prog : Program.t) =
  if Array.length maps <> Array.length prog.map_specs then
    invalid_arg "Loaded.link: map slot count mismatch";
  if Array.length models <> Array.length prog.model_arity then
    invalid_arg "Loaded.link: model slot count mismatch";
  Array.iteri
    (fun slot handle ->
      let arity = Model_store.n_features (Model_store.model store handle) in
      if arity <> prog.model_arity.(slot) then
        invalid_arg "Loaded.link: bound model feature arity mismatch")
    models;
  let privacy =
    match Program.privacy_budget prog with
    | Some epsilon_milli -> Some (Privacy.create ~epsilon_milli)
    | None -> None
  in
  let guardrail =
    match Program.guarded prog with
    | Some (lo, hi) -> Some (Guardrail.create ~lo ~hi)
    | None -> None
  in
  let uid = !next_uid in
  incr next_uid;
  let max_cols =
    Array.fold_left (fun acc (c : Program.const) -> Stdlib.max acc c.cols) 0 prog.consts
  in
  { prog;
    uid;
    maps;
    models;
    store;
    helpers;
    prog_table = Array.make (Stdlib.max 1 prog.n_prog_slots) None;
    privacy;
    guardrail;
    rng;
    consts = Array.map (fun (c : Program.const) -> c.data) prog.consts;
    vmem = Array.make (Stdlib.max 1 prog.vmem_size) 0;
    env =
      { Helper.ctxt = Ctxt.create ();
        now = (fun () -> 0);
        random = (fun () -> Kml.Rng.next rng) };
    call_args = Array.init 6 (fun arity -> Array.make arity 0);
    ml_args = Array.map (fun arity -> Array.make arity 0) prog.model_arity;
    matmul_src = Array.make max_cols 0;
    runs = 0;
    total_steps = 0 }

let bind_tail_call t ~slot target =
  if slot < 0 || slot >= t.prog.Program.n_prog_slots then
    invalid_arg "Loaded.bind_tail_call: slot out of range";
  t.prog_table.(slot) <- Some target

let name t = t.prog.Program.name
let uid t = t.uid
