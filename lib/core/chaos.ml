(* Chaos soak harness (DESIGN.md section 12): each scenario is a pure
   function of (master seed, scenario index) — a seeded fault plan armed
   through the domain-local scope of {!Rmt.Fault.with_plan}, a fresh
   control plane, a few hundred driven events, then a fault-free recovery
   phase that must re-close the breaker.  Because nothing escapes the
   scenario but its digest, running the batch on a 1-domain and a
   4-domain pool must produce bit-identical digests. *)

type scenario_report = {
  index : int;
  flavor : string;
  digest : int;
  events : int;
  fallbacks : int;
  breaker_opens : int;
  uncaught : int; (* exceptions that escaped the datapath; must be 0 *)
  reclosed : bool; (* breaker back to Closed once faults stopped *)
}

type summary = {
  scenarios : int;
  total_events : int;
  total_fallbacks : int;
  total_breaker_opens : int;
  total_uncaught : int;
  not_reclosed : int;
  digest : int; (* order-independent combination of scenario digests *)
}

(* Random per-scenario fault plan: each point is enabled with probability
   1/2 at a severity between 1% and 40%. *)
let plan_of rng =
  List.filter_map
    (fun p ->
      if Kml.Rng.bool rng then Some (p, 0.01 +. Kml.Rng.float rng 0.39) else None)
    Rmt.Fault.all_points

let chaos_prefetch_params =
  { Prefetch_rmt.history = 4; window_capacity = 512; retrain_period = 128 }

(* --- flavor 0: prefetch pipeline under fault load ------------------- *)

let run_prefetch rng ~events =
  let pf = Prefetch_rmt.create ~params:chaos_prefetch_params ~seed:(Kml.Rng.int rng 1_000_000) () in
  let p = Prefetch_rmt.prefetcher pf in
  let digest = ref 0 and uncaught = ref 0 and page = ref 0 in
  let drive e =
    page := (if Kml.Rng.int rng 10 < 8 then !page + 3 else Kml.Rng.int rng 4096);
    match
      p.Ksim.Prefetcher.on_access ~pid:1 ~page:!page ~hit:(Kml.Rng.bool rng) ~now:(e * 1000)
    with
    | pages -> List.iter (fun pg -> digest := Ksim.Net_sim.mix !digest pg) pages
    | exception _ -> incr uncaught
  in
  for e = 1 to events do
    drive e
  done;
  let breaker = Prefetch_rmt.breaker pf in
  (* Fault-free recovery: the clock advances 64 ms per event, so the
     256-event budget (~16 s) outlasts the worst case — a sustained
     model-output storm leaves the guardrail window degraded, and
     draining it needs a dozen-plus clean probes whose backoffs are
     capped at 1 s each (DESIGN.md section 12). *)
  let recover e =
    page := !page + 3;
    match
      p.Ksim.Prefetcher.on_access ~pid:1 ~page:!page ~hit:false
        ~now:((events * 1000) + (e * 64_000_000))
    with
    | pages -> List.iter (fun pg -> digest := Ksim.Net_sim.mix !digest pg) pages
    | exception _ -> incr uncaught
  in
  let fallbacks () = (Prefetch_rmt.stats pf).Prefetch_rmt.fallback_accesses in
  (breaker, digest, uncaught, recover, fallbacks)

(* --- flavor 1: scheduler migration decisions under fault load ------- *)

let sched_model rng =
  let n = Ksim.Lb_features.n_features in
  let ds = Kml.Dataset.create ~n_features:n ~n_classes:2 in
  for _ = 1 to 64 do
    let features = Array.init n (fun _ -> Kml.Rng.int rng 1024) in
    Kml.Dataset.add ds { Kml.Dataset.features; label = (if Kml.Rng.bool rng then 1 else 0) }
  done;
  Rmt.Model_store.Tree (Kml.Decision_tree.train ds)

let run_sched rng ~events =
  let sr = Sched_rmt.create ~model:(sched_model rng) () in
  let now = ref 0 in
  Rmt.Control.set_clock (Sched_rmt.control sr) (fun () -> !now);
  let decide = Sched_rmt.decider sr in
  let digest = ref 0 and uncaught = ref 0 in
  let n = Ksim.Lb_features.n_features in
  let drive e =
    now := e * 1000;
    let features = Array.init n (fun _ -> Kml.Rng.int rng 1024) in
    match decide ~features ~heuristic:(Kml.Rng.bool rng) with
    | b -> digest := Ksim.Net_sim.mix !digest (if b then 1 else 0)
    | exception _ -> incr uncaught
  in
  for e = 1 to events do
    drive e
  done;
  let breaker = Sched_rmt.breaker sr in
  let recover e =
    now := (events * 1000) + (e * 64_000_000);
    let features = Array.init n (fun _ -> Kml.Rng.int rng 1024) in
    match decide ~features ~heuristic:false with
    | b -> digest := Ksim.Net_sim.mix !digest (if b then 1 else 0)
    | exception _ -> incr uncaught
  in
  let fallbacks () = (Sched_rmt.stats sr).Sched_rmt.fallback_decisions in
  (breaker, digest, uncaught, recover, fallbacks)

(* --- flavor 2: control-plane churn (canary installs under faults) --- *)

let build_simple ~bias =
  let b = Rmt.Builder.create ~name:"chaos_prog" ~vmem_size:1 () in
  Rmt.Builder.add_capability b (Rmt.Program.Guarded { lo = 0; hi = 1023 });
  Rmt.Builder.emit b (Rmt.Insn.Ld_ctxt_k (0, Hooks.key_page));
  Rmt.Builder.emit b (Rmt.Insn.Alu_imm (Rmt.Insn.Add, 0, bias));
  Rmt.Builder.emit b (Rmt.Insn.Alu_imm (Rmt.Insn.Mod, 0, 1024));
  Rmt.Builder.emit b Rmt.Insn.Exit;
  Rmt.Builder.finish b ()

let chaos_hook = "chaos_hook"

let run_churn rng ~events =
  let control = Rmt.Control.create ~seed:(Kml.Rng.int rng 1_000_000) () in
  let now = ref 0 in
  Rmt.Control.set_clock control (fun () -> !now);
  let vm =
    match Rmt.Control.install control (build_simple ~bias:1) with
    | Ok vm -> vm
    | Error e -> invalid_arg ("Chaos.run_churn: " ^ e)
  in
  let table =
    Rmt.Control.create_table control ~name:"chaos_tab" ~match_keys:[||]
      ~default:(Rmt.Table.Run vm)
  in
  Rmt.Control.attach control ~hook:chaos_hook table;
  let breaker =
    Rmt.Control.protect control ~hook:chaos_hook ~programs:[ "chaos_prog" ]
      ~fallback:(fun ctxt -> Rmt.Ctxt.get ctxt Hooks.key_heuristic)
      ()
  in
  let ctxt = Rmt.Ctxt.create () in
  let digest = ref 0 and uncaught = ref 0 in
  let drive e =
    now := e * 1000;
    let page = Kml.Rng.int rng 4096 in
    Rmt.Ctxt.set ctxt Hooks.key_page page;
    Rmt.Ctxt.set ctxt Hooks.key_heuristic (page land 1);
    (* Periodic transactional reinstall: half the candidates are
       identical (promote), half biased (divergent -> rolled back). *)
    if e mod 64 = 0 then begin
      let bias = if Kml.Rng.bool rng then 1 else 7 in
      match Rmt.Control.install_canary control ~invocations:16 ~grace:32 (build_simple ~bias) with
      | Ok _ -> digest := Ksim.Net_sim.mix !digest bias
      | Error _ -> digest := Ksim.Net_sim.mix !digest (-bias)
    end;
    if e mod 97 = 0 then ignore (Rmt.Control.rollback_program control "chaos_prog");
    match Rmt.Control.fire control ~hook:chaos_hook ~ctxt with
    | Some v -> digest := Ksim.Net_sim.mix !digest v
    | None -> ()
    | exception _ -> incr uncaught
  in
  for e = 1 to events do
    drive e
  done;
  let recover e =
    now := (events * 1000) + (e * 64_000_000);
    let page = e land 4095 in
    Rmt.Ctxt.set ctxt Hooks.key_page page;
    Rmt.Ctxt.set ctxt Hooks.key_heuristic (page land 1);
    match Rmt.Control.fire control ~hook:chaos_hook ~ctxt with
    | Some v -> digest := Ksim.Net_sim.mix !digest v
    | None -> ()
    | exception _ -> incr uncaught
  in
  let fallbacks () =
    Rmt.Pipeline.fallback_served (Rmt.Control.pipeline control) ~hook:chaos_hook
  in
  (breaker, digest, uncaught, recover, fallbacks)

(* --- flavor 3: learned congestion control under fault load ---------- *)

let chaos_net_params =
  { Net_rmt.window_capacity = 256; retrain_period = 64; min_retrain_samples = 64 }

let run_net rng ~events =
  let net =
    Net_rmt.create ~params:chaos_net_params ~seed:(Kml.Rng.int rng 1_000_000) ()
  in
  let digest = ref 0 and uncaught = ref 0 in
  let min_rtt = 1_000_000 in
  let srtt = ref min_rtt and delivered = ref 0 and cwnd = ref 4 in
  let signal ~now ~rtt ~ecn ~loss =
    incr delivered;
    srtt := ((7 * !srtt) + rtt) / 8;
    { Ksim.Cc.now;
      rtt_ns = rtt;
      min_rtt_ns = min_rtt;
      srtt_ns = !srtt;
      ecn;
      loss;
      inflight = max 0 (!cwnd - 1);
      cwnd = !cwnd;
      delivered = !delivered;
      delivery_rate = 100 * !cwnd }
  in
  let drive e =
    (* 1 ms per ACK: several label windows and one online retrain elapse
       within the default 200-event soak. *)
    let rtt = min_rtt + Kml.Rng.int rng 1_500_000 in
    let ecn = Kml.Rng.int rng 10 = 0 in
    let loss = Kml.Rng.int rng 20 = 0 in
    match Net_rmt.decide net ~flow:1 (signal ~now:(e * 1_000_000) ~rtt ~ecn ~loss) with
    | d ->
        cwnd := d.Ksim.Cc.cwnd;
        digest := Ksim.Net_sim.mix (Ksim.Net_sim.mix !digest d.Ksim.Cc.cwnd) d.Ksim.Cc.pacing_ns
    | exception _ -> incr uncaught
  in
  for e = 1 to events do
    drive e
  done;
  let breaker = Net_rmt.breaker net in
  let recover e =
    (* 64 ms per event, same worst-case budget as the other flavors. *)
    let now = (events * 1_000_000) + (e * 64_000_000) in
    match Net_rmt.decide net ~flow:1 (signal ~now ~rtt:min_rtt ~ecn:false ~loss:false) with
    | d ->
        cwnd := d.Ksim.Cc.cwnd;
        digest := Ksim.Net_sim.mix !digest d.Ksim.Cc.cwnd
    | exception _ -> incr uncaught
  in
  let fallbacks () = (Net_rmt.stats net).Net_rmt.fallback_decisions in
  (breaker, digest, uncaught, recover, fallbacks)

(* --- flavor 4: drift storm across a mini fleet ---------------------- *)

(* A pool-free slice of the fleet control plane (DESIGN.md section 17):
   every tenant's concept flips at the same tick while the fault plan is
   live, so drift episodes, retrains and staged rollouts all race the
   injected faults.  Single shard, so the scenario exposes exactly one
   breaker to the harness. *)
let chaos_fleet_params =
  { Fleet.storm_params with
    Fleet.tenants = 4;
    shards = 1;
    drift_start = 24;
    bootstrap_samples = 128;
    window_capacity = 256 }

let run_drift rng ~events =
  let fleet =
    Fleet.create ~params:chaos_fleet_params ~seed:(Kml.Rng.int rng 1_000_000) ()
  in
  let digest = ref 0 and uncaught = ref 0 in
  let sync () =
    digest := Fleet.digest fleet;
    uncaught := (Fleet.report fleet).Fleet.uncaught
  in
  (* One fleet tick drives tenants x events_per_tick datapath events, so
     [events / 2] control-loop iterations keep the flavor's cost in line
     with the event-driven flavors while covering the storm and the
     post-storm rollouts. *)
  for _ = 1 to max 48 (events / 2) do
    Fleet.tick fleet
  done;
  sync ();
  let breaker = (Fleet.breakers fleet).(0) in
  let recover _e =
    (* Recovery runs fault-suppressed inside the fleet ({!Rmt.Fault.without}),
       matching the stock-heuristic degradation story: clean probes re-close
       the breaker, then learned service resumes. *)
    ignore (Fleet.recover ~max_ticks:1 fleet : bool);
    sync ()
  in
  let fallbacks () = (Fleet.report fleet).Fleet.fallback_served in
  (breaker, digest, uncaught, recover, fallbacks)

(* --- scenario driver ------------------------------------------------ *)

let flavors =
  [| ("prefetch", run_prefetch);
     ("sched", run_sched);
     ("churn", run_churn);
     ("net", run_net);
     ("drift", run_drift) |]

(* The faulted phase runs under the scenario's own domain-local plan;
   creation, the recovery phase and the assertions run fault-free.  The
   whole scenario sits inside {!Rmt.Fault.without}, so an ambient global
   plan (RKD_FAULTS) cannot reach the fault-free phases: those would
   draw from one process-wide rng in domain-interleaved order, and the
   digest would then depend on the pool width. *)
let run_scenario ~master ~events index =
  Rmt.Fault.without @@ fun () ->
  let rng = Kml.Rng.split master index in
  let plan = plan_of rng in
  let flavor_name, runner = flavors.(index mod Array.length flavors) in
  let plan_seed = Kml.Rng.int rng 0x3fffffff in
  let breaker, digest, uncaught, recover, fallbacks =
    Rmt.Fault.with_plan ~seed:plan_seed plan (fun () -> runner rng ~events)
  in
  let opens_after_faults = Rmt.Breaker.opens breaker in
  let recovery = ref 0 in
  while Rmt.Breaker.state breaker <> Rmt.Breaker.Closed && !recovery < 256 do
    incr recovery;
    recover !recovery
  done;
  (* A few extra fault-free events so half-open probes can finish. *)
  for e = !recovery + 1 to !recovery + 8 do
    recover e
  done;
  { index;
    flavor = flavor_name;
    digest = !digest;
    events;
    fallbacks = fallbacks ();
    breaker_opens = opens_after_faults;
    uncaught = !uncaught;
    reclosed = Rmt.Breaker.state breaker = Rmt.Breaker.Closed }

let summarize reports =
  Array.fold_left
    (fun acc r ->
      { scenarios = acc.scenarios + 1;
        total_events = acc.total_events + r.events;
        total_fallbacks = acc.total_fallbacks + r.fallbacks;
        total_breaker_opens = acc.total_breaker_opens + r.breaker_opens;
        total_uncaught = acc.total_uncaught + r.uncaught;
        not_reclosed = (acc.not_reclosed + if r.reclosed then 0 else 1);
        (* xor keeps the combination independent of completion order *)
        digest = acc.digest lxor Ksim.Net_sim.mix r.index r.digest })
    { scenarios = 0;
      total_events = 0;
      total_fallbacks = 0;
      total_breaker_opens = 0;
      total_uncaught = 0;
      not_reclosed = 0;
      digest = 0 }
    reports

let run ?(seed = 0xc4a05) ?(events = 200) ~scenarios () =
  let master = Kml.Rng.create seed in
  let indices = Array.init scenarios Fun.id in
  let reports =
    Par.parallel_map_array (Par.global ()) (run_scenario ~master ~events) indices
  in
  (summarize reports, reports)

let pp_summary fmt s =
  Format.fprintf fmt
    "chaos: %d scenarios, %d events, %d breaker opens, %d not reclosed, %d uncaught, digest %016x"
    s.scenarios s.total_events s.total_breaker_opens s.not_reclosed s.total_uncaught s.digest
