(* Per-hook failsafe (DESIGN.md section 12): a circuit breaker guarding
   the learned tables, plus the stock-heuristic fallback served while the
   breaker is open.  [vms] are the hook's learned programs, polled after
   each successful dispatch for guardrail storms and rate-limit
   saturation; on a breaker trip they are rolled back to their
   pre-promotion incumbents if a canary grace window is still open. *)
type protection = {
  breaker : Breaker.t;
  fallback : Ctxt.t -> int;
  guard_vms : Vm.t array;
  mutable fallback_served : int;
  mutable last_throttled : int; (* sum of vm throttled_units at last firing *)
  mutable throttle_streak : int;
}

type hook_state = {
  mutable tables : Table.t list;
  mutable firings : int;
  hook_id : int; (* interned once; trace events carry this id *)
  mutable protection : protection option;
}

type t = {
  hooks : (string, hook_state) Hashtbl.t;
  mutable order : string list; (* first-attach order, newest last *)
  view_ns : string; (* registry namespace for per-pipeline views *)
}

let create ?(view_ns = "rmt") () =
  { hooks = Hashtbl.create 16; order = []; view_ns }

let state t hook =
  match Hashtbl.find_opt t.hooks hook with
  | Some s -> s
  | None ->
    let s = { tables = []; firings = 0; hook_id = Obs.intern hook; protection = None } in
    Hashtbl.replace t.hooks hook s;
    t.order <- t.order @ [ hook ];
    s

let attach t ~hook table =
  let s = state t hook in
  s.tables <- s.tables @ [ table ]

let tables_at t ~hook =
  match Hashtbl.find_opt t.hooks hook with Some s -> s.tables | None -> []

let hooks t = List.filter (fun h -> tables_at t ~hook:h <> []) t.order

(* Fallback totals; firings are counted per hook ({!firings}).  The
   ambient hook id lets VM-level trace events attribute themselves to
   the hook whose table dispatched them. *)
let c_fallback = Obs.Counter.make "rmt.pipeline.fallback_served"
let c_trap_fallback = Obs.Counter.make "rmt.pipeline.trap_fallbacks"

(* The windowed guardrail-violation rate, and the run of consecutive
   throttled firings, that count as a breaker failure. *)
let guardrail_rate = 0.5
let saturation_streak = 8

let protect t ~hook ?breaker ~vms ~fallback () =
  let s = state t hook in
  let breaker = match breaker with Some b -> b | None -> Breaker.create hook in
  s.protection <-
    Some
      { breaker;
        fallback;
        guard_vms = vms;
        fallback_served = 0;
        last_throttled = 0;
        throttle_streak = 0 };
  Obs.Registry.register_view
    (Printf.sprintf "%s.breaker.%s.state" t.view_ns hook)
    (fun () -> Breaker.state_code (Breaker.state breaker));
  Obs.Registry.register_view
    (Printf.sprintf "%s.breaker.%s.fallback_served" t.view_ns hook)
    (fun () -> match s.protection with Some p -> p.fallback_served | None -> 0);
  breaker

let breaker t ~hook =
  match Hashtbl.find_opt t.hooks hook with
  | Some { protection = Some p; _ } -> Some p.breaker
  | Some { protection = None; _ } | None -> None

let fallback_served t ~hook =
  match Hashtbl.find_opt t.hooks hook with
  | Some { protection = Some p; _ } -> p.fallback_served
  | Some { protection = None; _ } | None -> 0

let sum_throttled vms =
  Array.fold_left (fun acc vm -> acc + Vm.throttled_units vm) 0 vms

(* Top level (not a closure) so the per-batch health poll allocates
   nothing: the serving layer runs it once per drained batch with
   telemetry on. *)
let rec any_guardrail_storm vms rate i =
  i < Array.length vms
  && (Vm.guardrail_degraded (Array.unsafe_get vms i) ~rate
      || any_guardrail_storm vms rate (i + 1))

(* Post-dispatch health monitors: a guardrail-violation storm on any of
   the hook's programs, or sustained rate-limiter saturation, count as
   breaker failures even though each individual firing "succeeded". *)
let observe_health p ~now_ns =
  let throttled = sum_throttled p.guard_vms in
  if throttled > p.last_throttled then p.throttle_streak <- p.throttle_streak + 1
  else p.throttle_streak <- 0;
  p.last_throttled <- throttled;
  let saturated = p.throttle_streak >= saturation_streak in
  if saturated then p.throttle_streak <- 0;
  if saturated || any_guardrail_storm p.guard_vms guardrail_rate 0 then
    Breaker.record_failure p.breaker ~now:now_ns
  else Breaker.record_success p.breaker ~now:now_ns

(* Top level (not a closure over [b]/[now]) so batched dispatch allocates
   nothing beyond what the tables themselves do. *)
let rec lookup_batch_tables tables b ~now =
  match tables with
  | [] -> ()
  | table :: rest ->
    Table.lookup_batch table b ~now;
    lookup_batch_tables rest b ~now

(* Trap markers start clear: a slot that traps in one table is then
   skipped by the hook's later tables (Table.lookup_batch), as the event
   stops at the first trap. *)
let dispatch_batch s (b : Batch.t) ~now =
  if Obs.enabled () then Obs.Trace.set_current_hook s.hook_id;
  Array.fill b.Batch.traps 0 b.Batch.n None;
  lookup_batch_tables s.tables b ~now;
  if Obs.enabled () then Obs.Trace.set_current_hook (-1)

(* Serve the stock heuristic for one slot; the trap marker (if any) is
   kept so callers can still see that the learned path failed there. *)
let fallback_slot p (b : Batch.t) s =
  p.fallback_served <- p.fallback_served + 1;
  Obs.Counter.incr c_fallback;
  b.Batch.results.(s) <- p.fallback b.Batch.ctxts.(s)

let rec any_trap (b : Batch.t) s n =
  s < n && (b.Batch.traps.(s) != None || any_trap b (s + 1) n)

(* Protected batch firing: the breaker grants one admission decision per
   batch (a batch is one arrival at the hook), then failure containment
   is per slot — a slot whose program trapped is served the stock
   heuristic and marked in [traps], the other slots keep their learned
   results, and the breaker records a single failure for the batch (plus
   a grace-window rollback of the hook's programs). *)
let fire_protected_batch s p b ~now =
  let now_ns = now () in
  if not (Breaker.allow p.breaker ~now:now_ns) then
    for slot = 0 to b.Batch.n - 1 do
      b.Batch.traps.(slot) <- None;
      b.Batch.steps.(slot) <- 0;
      b.Batch.denied.(slot) <- 0;
      fallback_slot p b slot
    done
  else begin
    dispatch_batch s b ~now;
    if any_trap b 0 b.Batch.n then begin
      Obs.Counter.incr c_trap_fallback;
      Breaker.record_failure p.breaker ~now:now_ns;
      Array.iter (fun vm -> ignore (Vm.rollback vm : bool)) p.guard_vms;
      for slot = 0 to b.Batch.n - 1 do
        if b.Batch.traps.(slot) != None then fallback_slot p b slot
      done
    end
    else observe_health p ~now_ns
  end

let fire_batch t ~hook b ~now =
  (* [find] + exception, not [find_opt]: the option would be a fresh
     minor-heap cell on every batch of the serving loop. *)
  match Hashtbl.find t.hooks hook with
  | exception Not_found -> false
  | s ->
    if s.tables = [] then false
    else begin
      let n = b.Batch.n in
      if n > 0 then begin
        s.firings <- s.firings + n;
        match s.protection with
        | Some p -> fire_protected_batch s p b ~now
        | None -> dispatch_batch s b ~now
      end;
      true
    end

let firings t ~hook =
  match Hashtbl.find_opt t.hooks hook with Some s -> s.firings | None -> 0

let pp fmt t =
  List.iter
    (fun hook ->
      Format.fprintf fmt "hook %s (%d firings):@." hook (firings t ~hook);
      (match Hashtbl.find_opt t.hooks hook with
       | Some { protection = Some p; _ } ->
         Format.fprintf fmt "  breaker %s: %s, %d fallback served@."
           (Breaker.name p.breaker)
           (match Breaker.state p.breaker with
            | Breaker.Closed -> "closed"
            | Breaker.Open -> "open"
            | Breaker.Half_open -> "half-open")
           p.fallback_served
       | Some { protection = None; _ } | None -> ());
      List.iter (fun table -> Format.fprintf fmt "  %a" Table.pp table) (tables_at t ~hook))
    (hooks t)
