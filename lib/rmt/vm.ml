type engine = Interpreted | Jit_compiled

(* Datapath telemetry (DESIGN.md section 11): one trace event per
   invocation, behind [Obs.enabled] and allocation-free — the
   steady-state zero-alloc contract of the JIT fast path is Gc-verified
   with telemetry on.  Invocation and step totals are the engines'
   counters and the per-program views. *)
let c_traps = Obs.Counter.make "rmt.vm.traps"

(* Canary lifecycle totals (DESIGN.md section 12). *)
let c_shadow_runs = Obs.Counter.make "rmt.canary.shadow_runs"
let c_divergences = Obs.Counter.make "rmt.canary.divergences"
let c_promoted = Obs.Counter.make "rmt.canary.promoted"
let c_rolled_back = Obs.Counter.make "rmt.canary.rolled_back"
let c_grace_rollbacks = Obs.Counter.make "rmt.canary.grace_rollbacks"

(* Candidate slot of the two-slot install protocol: shadows the incumbent
   for [remaining] invocations, counting divergences (trap, fresh
   guardrail violation, or result mismatch). *)
type canary = {
  c_loaded : Loaded.t;
  mutable c_compiled : Jit.compiled option;
  mutable c_remaining : int;
  mutable c_divergences : int;
  c_max_divergences : int;
  c_grace : int;
}

(* Displaced incumbent, kept for [g_remaining] invocations after a
   promotion so a trap or breaker-open can roll the promotion back. *)
type grace = {
  g_loaded : Loaded.t;
  g_compiled : Jit.compiled option;
  mutable g_remaining : int;
}

type t = {
  mutable loaded : Loaded.t;
  engine : engine;
  mutable compiled : Jit.compiled option;
  (* The limiter needs a creation timestamp, which is only known at the
     first invocation; hence the deferred initialization below. *)
  mutable limiter_state : Rate_limit.t option;
  mutable limiter_initialized : bool;
  mutable traps : int;
  mutable canary : canary option;
  mutable grace : grace option;
}

let create ?(engine = Jit_compiled) loaded =
  { loaded;
    engine;
    compiled = (match engine with Jit_compiled -> Some (Jit.compile loaded) | Interpreted -> None);
    limiter_state = None;
    limiter_initialized = false;
    traps = 0;
    canary = None;
    grace = None }

let engine t = t.engine

let loaded t = t.loaded
let traps t = t.traps

let limiter_for t ~now =
  if not t.limiter_initialized then begin
    t.limiter_initialized <- true;
    t.limiter_state <-
      (match Program.rate_limited t.loaded.Loaded.prog with
       | Some (tokens_per_sec, burst) ->
         Some (Rate_limit.create ~tokens_per_sec ~burst ~now:(now ()))
       | None -> None)
  end;
  t.limiter_state

let compiled_for t =
  match t.compiled with
  | Some c -> c
  | None ->
    let c = Jit.compile t.loaded in
    t.compiled <- Some c;
    c

(* Point [t] at a different loaded instance in place.  In-place matters:
   table entries hold direct [Run vm] references (Table.action), so
   promotion and rollback must be visible through the existing Vm without
   touching any table. *)
let adopt t ?compiled loaded =
  t.loaded <- loaded;
  t.compiled <-
    (match t.engine with
     | Interpreted -> None
     | Jit_compiled ->
       (match compiled with Some _ as c -> c | None -> Some (Jit.compile loaded)));
  t.limiter_state <- None;
  t.limiter_initialized <- false

let swap t loaded =
  t.canary <- None;
  t.grace <- None;
  adopt t loaded

let rollback t =
  match t.grace with
  | None -> false
  | Some g ->
    adopt t ?compiled:g.g_compiled g.g_loaded;
    t.grace <- None;
    Obs.Counter.incr c_grace_rollbacks;
    true

let engine_code = function Interpreted -> 0 | Jit_compiled -> 1

(* One fixed-size flight-recorder event per invocation.  The guardrail
   clamps inside the engines, so its contribution is detected as a
   violation-count delta across the run; throttling and privacy denials
   are visible directly. *)
let record t ~violations_before ~steps ~result ~throttled ~denied =
  let flags =
    (if throttled then Obs.Trace.flag_throttled else 0)
    lor
    (if denied > 0 then Obs.Trace.flag_privacy_denied else 0)
    lor
    match t.loaded.Loaded.guardrail with
    | Some g when Guardrail.violations g > violations_before -> Obs.Trace.flag_guardrail
    | Some _ | None -> 0
  in
  Obs.Trace.emit
    ~hook:(Obs.Trace.current_hook ())
    ~uid:t.loaded.Loaded.uid
    ~engine:(engine_code t.engine)
    ~steps ~result ~flags

let guardrail_violations_now t =
  match t.loaded.Loaded.guardrail with Some g -> Guardrail.violations g | None -> 0

(* ------------------------------------------------------------------ *)
(* Canary shadowing (DESIGN.md section 12)                              *)
(* ------------------------------------------------------------------ *)

let canary_compiled c =
  match c.c_compiled with
  | Some jc -> jc
  | None ->
    let jc = Jit.compile c.c_loaded in
    c.c_compiled <- Some jc;
    jc

let promote t c =
  let prev_loaded = t.loaded and prev_compiled = t.compiled in
  adopt t
    ?compiled:(match t.engine with Jit_compiled -> Some (canary_compiled c) | Interpreted -> None)
    c.c_loaded;
  t.canary <- None;
  t.grace <-
    (if c.c_grace > 0 then
       Some { g_loaded = prev_loaded; g_compiled = prev_compiled; g_remaining = c.c_grace }
     else None);
  Obs.Counter.incr c_promoted

(* One shadow step per live invocation: run the candidate on a copy of the
   context (its maps and vmem are its own, so the live datapath state is
   untouched), compare against the incumbent's result, and promote or roll
   back when the canary budget is spent. *)
let shadow_step t c ~ctxt ~now incumbent_result =
  Obs.Counter.incr c_shadow_runs;
  let shadow_ctxt = Ctxt.copy ctxt in
  let violations_before =
    match c.c_loaded.Loaded.guardrail with Some g -> Guardrail.violations g | None -> 0
  in
  (* The candidate runs inside the scrutinee so the [exception] arm below
     catches its traps. *)
  match
    match t.engine with
    | Interpreted -> (Interp.run c.c_loaded ~ctxt:shadow_ctxt ~now).Interp.result
    | Jit_compiled -> Jit.exec (canary_compiled c) ~ctxt:shadow_ctxt ~now
  with
  | result ->
    let violated =
      match c.c_loaded.Loaded.guardrail with
      | Some g -> Guardrail.violations g > violations_before
      | None -> false
    in
    if violated || result <> incumbent_result then begin
      c.c_divergences <- c.c_divergences + 1;
      Obs.Counter.incr c_divergences
    end;
    c.c_remaining <- c.c_remaining - 1;
    if c.c_remaining <= 0 then
      if c.c_divergences <= c.c_max_divergences then promote t c
      else begin
        t.canary <- None;
        Obs.Counter.incr c_rolled_back
      end
  | exception exn ->
    (match Interp.trap_of_exn exn with
     | None -> raise exn
     | Some _ ->
       (* A trapping candidate is disqualified outright. *)
       t.canary <- None;
       Obs.Counter.incr c_divergences;
       Obs.Counter.incr c_rolled_back)

let tick_grace t g =
  g.g_remaining <- g.g_remaining - 1;
  if g.g_remaining <= 0 then t.grace <- None

(* Cold path hung off the slot epilogue below: two option loads when idle. *)
let staging_step t ~ctxt ~now result =
  (match t.canary with Some c -> shadow_step t c ~ctxt ~now result | None -> ());
  match t.grace with Some g -> tick_grace t g | None -> ()

let stage_canary t ?(invocations = 64) ?max_divergences ?(grace = 256) loaded =
  if invocations <= 0 then invalid_arg "Vm.stage_canary: invocations must be positive";
  let max_divergences =
    match max_divergences with Some d -> Stdlib.max 0 d | None -> invocations / 4
  in
  t.canary <-
    Some
      { c_loaded = loaded;
        c_compiled = None;
        c_remaining = invocations;
        c_divergences = 0;
        c_max_divergences = max_divergences;
        c_grace = grace }

let cancel_canary t =
  match t.canary with
  | None -> false
  | Some _ ->
    t.canary <- None;
    Obs.Counter.incr c_rolled_back;
    true

let canary_status t =
  match (t.canary, t.grace) with
  | Some c, _ -> `Canary (c.c_remaining, c.c_divergences)
  | None, Some g -> `Grace g.g_remaining
  | None, None -> `Idle

(* ------------------------------------------------------------------ *)
(* Invocation (DESIGN.md section 13)                                    *)
(* ------------------------------------------------------------------ *)

(* Slot epilogue, in slot order: rate-limiter grant (inherently
   sequential shared state), flight-recorder event, canary/grace staging
   step.  Only for a completed slot — a trapped one produced no result to
   limit, record or shadow. *)
let epilogue t (b : Batch.t) s ~now ~violations_before =
  let result = b.Batch.results.(s) in
  let result, throttled =
    match limiter_for t ~now with
    | None -> (result, false)
    | Some bucket ->
      let granted = Rate_limit.grant bucket ~now:(now ()) ~request:result in
      (granted, granted < result)
  in
  b.Batch.results.(s) <- result;
  if Obs.enabled () then
    record t ~violations_before ~steps:b.Batch.steps.(s) ~result ~throttled
      ~denied:b.Batch.denied.(s);
  if t.canary != None || t.grace != None then
    staging_step t ~ctxt:b.Batch.ctxts.(s) ~now result

let fill_slot (b : Batch.t) s ~result ~steps ~denied ~trap =
  b.Batch.results.(s) <- result;
  b.Batch.steps.(s) <- steps;
  b.Batch.denied.(s) <- denied;
  b.Batch.traps.(s) <- trap

(* Called on the cold path, with the engine already unwound: count the
   trap (rolling back a promotion still inside its grace window, so the
   incumbent serves the next slot) and contain it in the slot. *)
let contain_trap t b s exn =
  match Interp.trap_of_exn exn with
  | None -> raise exn
  | Some trap ->
    t.traps <- t.traps + 1;
    Obs.Counter.incr c_traps;
    (match t.grace with Some _ -> ignore (rollback t : bool) | None -> ());
    fill_slot b s ~result:0 ~steps:0 ~denied:0 ~trap:(Some trap)

(* The one per-slot body: engine run, trap containment, epilogue. *)
let invoke_slot t b s ~now =
  let violations_before = guardrail_violations_now t in
  let ctxt = b.Batch.ctxts.(s) in
  (match t.engine with
   | Interpreted ->
     (match Interp.run t.loaded ~ctxt ~now with
      | o ->
        fill_slot b s ~result:o.Interp.result ~steps:o.Interp.steps
          ~denied:o.Interp.privacy_denied ~trap:None
      | exception exn -> contain_trap t b s exn)
   | Jit_compiled ->
     let c = compiled_for t in
     (match Jit.exec c ~ctxt ~now with
      | result ->
        fill_slot b s ~result ~steps:(Jit.last_steps c) ~denied:(Jit.last_privacy_denied c)
          ~trap:None
      | exception exn -> contain_trap t b s exn));
  if b.Batch.traps.(s) == None then epilogue t b s ~now ~violations_before

let invoke_batch t b ~now =
  let n = b.Batch.n in
  (* The SoA kernel runs only on the JIT engine, for more than one slot,
     with fault injection quiescent: under an active injection plan every
     per-slot seam (Engine_trap, model faults) must get its own draw,
     which the per-slot path provides and an instruction-major kernel
     cannot.  For the kernel, guardrail violations cannot be attributed to
     a single slot, so the trace flag means "some slot of this batch". *)
  let violations_before = guardrail_violations_now t in
  let used_kernel =
    n > 1
    &&
    match t.engine with
    | Jit_compiled when not (Fault.active ()) -> Jit.exec_batch (compiled_for t) b
    | Interpreted | Jit_compiled -> false
  in
  if used_kernel then
    for s = 0 to n - 1 do
      epilogue t b s ~now ~violations_before
    done
  else
    for s = 0 to n - 1 do
      invoke_slot t b s ~now
    done

let jit_units t =
  match t.compiled with Some c -> Jit.compiled_units c | None -> 0

let invocations t = t.loaded.Loaded.runs
let total_steps t = t.loaded.Loaded.total_steps

let throttled_units t =
  match t.limiter_state with Some bucket -> Rate_limit.throttled bucket | None -> 0

let guardrail_violations t =
  match t.loaded.Loaded.guardrail with Some g -> Guardrail.violations g | None -> 0

let guardrail_degraded t ~rate =
  match t.loaded.Loaded.guardrail with
  | Some g -> Guardrail.violation_rate_ge g rate
  | None -> false
