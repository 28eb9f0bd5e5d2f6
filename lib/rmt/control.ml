type t = {
  helpers : Helper.t;
  store : Model_store.t;
  pipeline : Pipeline.t;
  programs : (string, Vm.t) Hashtbl.t;
  resources : (string, Resource.t) Hashtbl.t; (* per-program compile-time report *)
  tables : (string, Table.t) Hashtbl.t;
  mutable clock : unit -> int;
  mutable program_order : string list;
  mutable table_order : string list;
  default_engine : Vm.engine;
  rng : Kml.Rng.t;
  mutable installs : int; (* indexes per-install Rng substreams *)
  view_ns : string; (* registry namespace for per-control-plane views *)
  single : Batch.t; (* the one-slot batch {!fire} runs an event through *)
}

(* Control-plane activity totals (DESIGN.md section 11). *)
let c_installs = Obs.Counter.make "rmt.control.installs"
let c_install_rejected = Obs.Counter.make "rmt.control.install_rejected"
let c_model_updates = Obs.Counter.make "rmt.control.model_updates"

(* Folds a program's pre-existing per-VM counters (invocations, steps,
   throttled units, guardrail violations) into registry views through the
   unchanged Vm accessors, so `rkdctl stats` reports them uniformly next
   to the striped counters.  Reinstalling a name rebinds its views. *)
let register_program_views ~view_ns name vm =
  let view suffix f =
    Obs.Registry.register_view
      (view_ns ^ ".program." ^ name ^ "." ^ suffix)
      (fun () -> f vm)
  in
  view "invocations" Vm.invocations;
  view "steps" Vm.total_steps;
  view "throttled_units" Vm.throttled_units;
  view "guardrail_violations" Vm.guardrail_violations

let create ?(engine = Vm.Jit_compiled) ?(seed = 0x5eed) ?(view_ns = "rmt") () =
  { helpers = Helper.with_defaults ();
    store = Model_store.create ();
    pipeline = Pipeline.create ~view_ns ();
    programs = Hashtbl.create 16;
    resources = Hashtbl.create 16;
    tables = Hashtbl.create 16;
    clock = (fun () -> 0);
    program_order = [];
    table_order = [];
    default_engine = engine;
    rng = Kml.Rng.create seed;
    installs = 0;
    view_ns;
    single = Batch.create ~capacity:1 }

let helpers t = t.helpers
let models t = t.store
let pipeline t = t.pipeline

(* Fault seam: clock skew perturbs every timestamp the datapath sees —
   rate limiters, breakers and backoff schedules must tolerate a clock
   that jumps forward or steps slightly backward (DESIGN.md section 12). *)
let set_clock t clock =
  t.clock <-
    (fun () ->
      let n = clock () in
      if Fault.active () && Fault.fire Fault.Clock_skew then n + Fault.skew () else n)
let register_model t ~name model = Model_store.register t.store ~name model

let update_model t ~name model =
  match Model_store.find t.store name with
  | None -> Error (Printf.sprintf "update_model: no model named %s" name)
  | Some handle ->
    (match Model_store.replace t.store handle model with
     | () ->
       Obs.Counter.incr c_model_updates;
       Ok ()
     | exception Invalid_argument msg -> Error msg)

(* Verify, link and return a Loaded instance without touching the program
   registry: the shared front half of {!install} (which wraps the result
   in a fresh Vm) and {!install_canary} (which stages it as the candidate
   slot of an already-running Vm). *)
let prepare t ?resource_budget ?(model_names = []) (prog : Program.t) =
  let n_slots = Array.length prog.model_arity in
  if List.length model_names <> n_slots then
    Error
      (Printf.sprintf "install %s: program declares %d model slots, %d names given" prog.name
         n_slots (List.length model_names))
  else begin
    let resolve name =
      match Model_store.find t.store name with
      | Some h -> Ok h
      | None -> Error (Printf.sprintf "install %s: unknown model %s" prog.name name)
    in
    let rec resolve_all = function
      | [] -> Ok []
      | name :: rest ->
        (match resolve name with
         | Error _ as e -> e
         | Ok h ->
           (match resolve_all rest with Error _ as e -> e | Ok hs -> Ok (h :: hs)))
    in
    match resolve_all model_names with
    | Error e -> Error e
    | Ok handles ->
      let handles = Array.of_list handles in
      let model_costs =
        Array.map (fun h -> Model_store.cost (Model_store.model t.store h)) handles
      in
      (match Verifier.check ~helpers:t.helpers ~model_costs prog with
       | Error v ->
         Obs.Counter.incr c_install_rejected;
         Error (Printf.sprintf "verifier rejected %s: %s" prog.name
                  (Verifier.violation_to_string v))
       | Ok report ->
         (* Compile-time resource report (Homunculus-style): derived from
            the verifier report and checkable against a declared ceiling
            before the program ever serves traffic. *)
         let resource = Resource.of_report report prog in
         let over_budget =
           match resource_budget with
           | Some rb -> Resource.violations resource rb
           | None -> []
         in
         if over_budget <> [] then begin
           Obs.Counter.incr c_install_rejected;
           Error
             (Printf.sprintf "resource budget rejected %s: %s" prog.name
                (String.concat "; " over_budget))
         end
         else begin
           let maps = Array.map Map_store.create prog.map_specs in
           let rng = Kml.Rng.split t.rng t.installs in
           t.installs <- t.installs + 1;
           match
             Loaded.link ~rng ~store:t.store ~helpers:t.helpers ~maps ~models:handles prog
           with
           | loaded ->
             Hashtbl.replace t.resources prog.name resource;
             Ok loaded
           | exception Invalid_argument msg -> Error msg
         end)
  end

let protect t ~hook ?breaker ~programs ~fallback () =
  let vms =
    Array.of_list (List.filter_map (fun name -> Hashtbl.find_opt t.programs name) programs)
  in
  Pipeline.protect t.pipeline ~hook ?breaker ~vms ~fallback ()

(* Serve a verified and linked program under its name. *)
let register t (prog : Program.t) loaded =
  let vm = Vm.create ~engine:t.default_engine loaded in
  if not (Hashtbl.mem t.programs prog.name) then
    t.program_order <- t.program_order @ [ prog.name ];
  Hashtbl.replace t.programs prog.name vm;
  Obs.Counter.incr c_installs;
  register_program_views ~view_ns:t.view_ns prog.name vm;
  vm

let install t ?resource_budget ?model_names (prog : Program.t) =
  Result.map (register t prog) (prepare t ?resource_budget ?model_names prog)

let install_canary t ?resource_budget ?model_names ?invocations ?max_divergences ?grace
    (prog : Program.t) =
  match Hashtbl.find_opt t.programs prog.name with
  | None ->
    (* Nothing to canary against: a first install is immediate. *)
    install t ?resource_budget ?model_names prog
  | Some vm ->
    (match prepare t ?resource_budget ?model_names prog with
     | Error _ as e -> e
     | Ok loaded ->
       Vm.stage_canary vm ?invocations ?max_divergences ?grace loaded;
       Obs.Counter.incr c_installs;
       Ok vm)

(* Forced in-place replacement for the fleet's rollback-after-grace path:
   verify and link like {!install}, but splice the result into the
   incumbent's Vm with {!Vm.swap} so every table entry holding a direct
   reference to that Vm serves the new build immediately — no canary
   window, no new Vm object.  A fresh name falls back to {!install}. *)
let swap_program t ~model_names (prog : Program.t) =
  let resource_budget = Resource.default_budget in
  match Hashtbl.find_opt t.programs prog.name with
  | None -> install t ~resource_budget ~model_names prog
  | Some vm ->
    (match prepare t ~resource_budget ~model_names prog with
     | Error _ as e -> e
     | Ok loaded ->
       Vm.swap vm loaded;
       Obs.Counter.incr c_installs;
       Ok vm)

let canary_status t name =
  match Hashtbl.find_opt t.programs name with
  | None -> None
  | Some vm -> Some (Vm.canary_status vm)

let rollback_program t name =
  match Hashtbl.find_opt t.programs name with
  | None -> false
  | Some vm -> Vm.cancel_canary vm || Vm.rollback vm

let install_asm t source =
  match Asm.parse ~helpers:t.helpers source with
  | Error e -> Error (Format.asprintf "%a" Asm.pp_error e)
  | Ok prog -> install t prog

let find_program t name = Hashtbl.find_opt t.programs name

let resource_report t name = Hashtbl.find_opt t.resources name

let bind_tail_call t ~caller ~slot ~callee =
  match (find_program t caller, find_program t callee) with
  | None, _ -> Error (Printf.sprintf "bind_tail_call: unknown caller %s" caller)
  | _, None -> Error (Printf.sprintf "bind_tail_call: unknown callee %s" callee)
  | Some cvm, Some tvm ->
    (match Loaded.bind_tail_call (Vm.loaded cvm) ~slot (Vm.loaded tvm) with
     | () -> Ok ()
     | exception Invalid_argument msg -> Error msg)

let create_table t ~name ~match_keys ~default =
  let table = Table.create ~name ~match_keys ~default in
  if not (Hashtbl.mem t.tables name) then t.table_order <- t.table_order @ [ name ];
  Hashtbl.replace t.tables name table;
  table

let find_table t name = Hashtbl.find_opt t.tables name
let attach t ~hook table = Pipeline.attach t.pipeline ~hook table

(* A single event is a batch of one.  Only an unprotected hook surfaces
   the slot's trap: a protected one has already served its fallback. *)
let fire t ~hook ~ctxt =
  let b = t.single in
  b.Batch.ctxts.(0) <- ctxt;
  if not (Pipeline.fire_batch t.pipeline ~hook b ~now:t.clock) then None
  else
    match b.Batch.traps.(0) with
    | Some trap when Pipeline.breaker t.pipeline ~hook = None -> raise (Interp.Trap trap)
    | Some _ | None -> Some b.Batch.results.(0)

let fire_batch t ~hook b = Pipeline.fire_batch t.pipeline ~hook b ~now:t.clock

let program_names t = t.program_order
let table_names t = t.table_order

let pp fmt t =
  Format.fprintf fmt "control plane: %d programs, %d tables, %d models@."
    (List.length t.program_order) (List.length t.table_order) (Model_store.count t.store);
  List.iter
    (fun name ->
      match find_program t name with
      | Some vm ->
        Format.fprintf fmt "  program %s: %d invocations, %d steps@." name (Vm.invocations vm)
          (Vm.total_steps vm)
      | None -> ())
    t.program_order;
  Pipeline.pp fmt t.pipeline
