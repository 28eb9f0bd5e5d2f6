(* Fleet control plane (DESIGN.md section 17): width-deterministic soaks,
   drift-to-recovery behaviour, storm thrash bounds, telemetry views,
   Adapt band-edge regressions, cross-tenant backoff isolation and the
   serving layer's staged rollout. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let one_pct =
  match Rmt.Fault.parse_spec "all:0.01" with
  | Ok specs -> specs
  | Error e -> failwith e

(* ---------------- Width determinism ---------------- *)

let same_report tag (a : Rkd.Fleet.report) (b : Rkd.Fleet.report) =
  check_int (tag ^ ": digest") a.Rkd.Fleet.digest b.Rkd.Fleet.digest;
  check_int (tag ^ ": events") a.Rkd.Fleet.events b.Rkd.Fleet.events;
  check_int (tag ^ ": episodes") a.Rkd.Fleet.episodes b.Rkd.Fleet.episodes;
  check_int (tag ^ ": installs") a.Rkd.Fleet.installs b.Rkd.Fleet.installs;
  check_int (tag ^ ": promotions") a.Rkd.Fleet.promotions b.Rkd.Fleet.promotions;
  check_int (tag ^ ": rollbacks") a.Rkd.Fleet.rollbacks b.Rkd.Fleet.rollbacks;
  check_int (tag ^ ": mean accuracy") a.Rkd.Fleet.mean_accuracy_milli
    b.Rkd.Fleet.mean_accuracy_milli

let test_width_determinism () =
  let runs =
    Par.replay ~widths:[ 1; 4 ] (fun () -> Rkd.Fleet.soak ~seed:0xf1ee7 ())
  in
  let seq = List.assoc 1 runs and par = List.assoc 4 runs in
  same_report "clean" seq par;
  (* Pins the retrained and distilled candidates: `rkdctl fleet` prints
     this digest for the default seed with no fault plan. *)
  Alcotest.(check string) "pinned digest" "1f73b27788423e9c"
    (Printf.sprintf "%016x" seq.Rkd.Fleet.digest)

let test_width_determinism_faulted () =
  let runs =
    Par.replay ~widths:[ 1; 4 ] (fun () ->
        Rkd.Fleet.soak ~fault_specs:one_pct ~seed:0xf1ee7 ())
  in
  let seq = List.assoc 1 runs and par = List.assoc 4 runs in
  same_report "faulted" seq par;
  Alcotest.(check string) "pinned digest" "1a71b55593546f34"
    (Printf.sprintf "%016x" seq.Rkd.Fleet.digest)

(* ---------------- Drift -> recovery ---------------- *)

let test_drift_recovery () =
  let r = Rkd.Fleet.soak ~seed:0xf1ee7 () in
  List.iter
    (fun (name, ok) -> check_bool name true ok)
    (Rkd.Report.fleet_checks r);
  check_bool "every tenant saw at least one drift episode" true
    (Array.for_all (fun v -> v.Rkd.Fleet.t_episodes >= 1) r.Rkd.Fleet.per_tenant)

(* ---------------- Storm: no thrash, breakers re-close -------------- *)

let test_storm_no_thrash () =
  let r =
    Rkd.Fleet.soak ~params:Rkd.Fleet.storm_params ~fault_specs:one_pct ~seed:0xf1ee7 ()
  in
  List.iter
    (fun (name, ok) -> check_bool name true ok)
    (Rkd.Report.fleet_checks ~faulted:true r);
  check_bool "bounded installs per episode under a drift storm" true
    (r.Rkd.Fleet.max_attempts <= 2);
  check_bool "breakers re-closed after the storm" true r.Rkd.Fleet.breakers_reclosed;
  check_int "no uncaught datapath exceptions" 0 r.Rkd.Fleet.uncaught

(* ---------------- Telemetry views + stripe guard ---------------- *)

let test_registry_views () =
  let fleet = Rkd.Fleet.create ~seed:0xf1ee7 () in
  for _ = 1 to 160 do
    Rkd.Fleet.tick fleet
  done;
  check_bool "recovered" true (Rkd.Fleet.recover fleet);
  let r = Rkd.Fleet.report fleet in
  let snap = Obs.Registry.snapshot () in
  let scalar name =
    match Obs.Snapshot.scalar snap name with
    | Some v -> v
    | None -> Alcotest.failf "registry view %s missing from snapshot" name
  in
  Array.iter
    (fun v ->
      let name suffix = Printf.sprintf "rmt.fleet.%d.%s" v.Rkd.Fleet.t_id suffix in
      check_int (name "accuracy") v.Rkd.Fleet.t_accuracy_milli (scalar (name "accuracy"));
      check_int (name "drift_episodes") v.Rkd.Fleet.t_episodes
        (scalar (name "drift_episodes"));
      check_int (name "rollbacks") v.Rkd.Fleet.t_rollbacks (scalar (name "rollbacks")))
    r.Rkd.Fleet.per_tenant;
  check_int "rmt.fleet.episodes" r.Rkd.Fleet.episodes (scalar "rmt.fleet.episodes");
  check_int "rmt.fleet.installs" r.Rkd.Fleet.installs (scalar "rmt.fleet.installs");
  check_int "rmt.fleet.promotions" r.Rkd.Fleet.promotions (scalar "rmt.fleet.promotions");
  check_int "rmt.fleet.rollbacks" r.Rkd.Fleet.rollbacks (scalar "rmt.fleet.rollbacks");
  check_int "rmt.fleet.deferred" r.Rkd.Fleet.deferred (scalar "rmt.fleet.deferred");
  (* The striped-counter overflow guard (shared with the serve fleet):
     ids beyond the stripe capacity must mask into range, not index out
     of bounds, and the high-water mark must record the overflow. *)
  let cap = Obs.stripe_capacity in
  check_int "in-range id maps to itself" 3 (Obs.stripe_of_id 3);
  let big = (cap * 5) + 1 in
  let s = Obs.stripe_of_id big in
  check_bool "overflow id is masked into range" true (s >= 0 && s < cap);
  check_bool "overflow high-water recorded" true (Obs.stripe_overflow_max_id () >= big)

(* ---------------- Adapt band-edge regressions ---------------- *)

(* A stream sitting just above [low] (0.62) must not degrade: five in
   eight correct holds every 48-observation window at 0.625. *)
let test_adapt_above_low () =
  let m = Rkd.Adapt.create () in
  for i = 0 to 479 do
    Rkd.Adapt.observe m ~correct:(i land 7 < 5)
  done;
  check_bool "still normal just above low" true (Rkd.Adapt.mode m = Rkd.Adapt.Normal);
  check_int "no transitions just above low" 0 (Rkd.Adapt.transitions m)

(* Once degraded, a stream sitting just below [high] (0.80) must not
   recover (and in particular must not oscillate). *)
let test_adapt_below_high () =
  let m = Rkd.Adapt.create () in
  for _ = 1 to 48 do
    Rkd.Adapt.observe m ~correct:false
  done;
  check_bool "degraded" true (Rkd.Adapt.mode m = Rkd.Adapt.Conservative);
  (* 38 of every 48 correct holds each window at 0.79. *)
  for i = 0 to 479 do
    Rkd.Adapt.observe m ~correct:(i mod 48 < 38)
  done;
  check_bool "still conservative just below high" true
    (Rkd.Adapt.mode m = Rkd.Adapt.Conservative);
  check_int "one transition total" 1 (Rkd.Adapt.transitions m);
  for _ = 1 to 48 do
    Rkd.Adapt.observe m ~correct:true
  done;
  check_bool "recovers above high" true (Rkd.Adapt.mode m = Rkd.Adapt.Normal)

(* The dwell floor is the window: a mode change is judged only when a
   48-observation window completes, so the opposite crossing is refused
   until a full window has been seen since the last transition. *)
let test_adapt_dwell () =
  let m = Rkd.Adapt.create () in
  for _ = 1 to 48 do
    Rkd.Adapt.observe m ~correct:false
  done;
  check_int "degrade fires once" 1 (Rkd.Adapt.transitions m);
  for _ = 1 to 47 do
    Rkd.Adapt.observe m ~correct:true
  done;
  check_bool "recovery held back inside the dwell" true
    (Rkd.Adapt.mode m = Rkd.Adapt.Conservative);
  check_int "no flap inside the dwell" 1 (Rkd.Adapt.transitions m);
  Rkd.Adapt.observe m ~correct:true;
  check_bool "recovers once the dwell expires" true (Rkd.Adapt.mode m = Rkd.Adapt.Normal);
  check_int "exactly two transitions" 2 (Rkd.Adapt.transitions m)

(* ---------------- Two-tenant interleaved failures ---------------- *)

let tree_of rng =
  let ds = Kml.Dataset.create ~n_features:1 ~n_classes:2 in
  for _ = 1 to 32 do
    let x = Kml.Rng.int rng 100 in
    Kml.Dataset.add ds { Kml.Dataset.features = [| x |]; label = (if x >= 50 then 1 else 0) }
  done;
  Rmt.Model_store.Tree (Kml.Decision_tree.train ds)

(* Regression for the audit in {!Rmt.Control.update_model_checked}:
   backoff state is keyed per model name, so tenant A crash-looping its
   updates must never defer tenant B's, and each backoff expires on its
   own clock. *)
let test_backoff_isolation () =
  let rng = Kml.Rng.create 7 in
  let control = Rmt.Control.create ~seed:7 () in
  let now = ref 0 in
  Rmt.Control.set_clock control (fun () -> !now);
  ignore (Rmt.Control.register_model control ~name:"ta" (tree_of rng) : Rmt.Model_store.handle);
  ignore (Rmt.Control.register_model control ~name:"tb" (tree_of rng) : Rmt.Model_store.handle);
  let fail_update name =
    (* The probe demands predictions in [5, 9]; a binary tree cannot
       satisfy it, so the update rolls back and arms the backoff. *)
    Rmt.Control.update_model_checked control ~name ~samples:[ [| 10 |]; [| 90 |] ] ~lo:5
      ~hi:9 (tree_of rng)
  in
  let ok_update name =
    Rmt.Control.update_model_checked control ~name ~samples:[ [| 10 |]; [| 90 |] ] ~lo:0
      ~hi:1 (tree_of rng)
  in
  check_bool "A: bad update refused" true (Result.is_error (fail_update "ta"));
  check_bool "B: clean update unaffected by A's backoff" true (Result.is_ok (ok_update "tb"));
  check_bool "A: still in backoff" true (Result.is_error (ok_update "ta"));
  check_bool "B: bad update refused" true (Result.is_error (fail_update "tb"));
  now := 5_000_000;
  (* 5 ms of simulated clock clears both 1 ms first-failure backoffs. *)
  check_bool "A: recovers after its backoff" true (Result.is_ok (ok_update "ta"));
  check_bool "B: recovers after its backoff" true (Result.is_ok (ok_update "tb"))

let build_named name bias =
  let open Rmt in
  let b = Builder.create ~name ~vmem_size:1 () in
  Builder.add_capability b (Program.Guarded { lo = 0; hi = 1023 });
  Builder.emit b (Insn.Ld_ctxt_k (0, Rkd.Hooks.key_page));
  Builder.emit b (Insn.Alu_imm (Insn.Add, 0, bias));
  Builder.emit b (Insn.Alu_imm (Insn.Mod, 0, 1024));
  Builder.emit b Insn.Exit;
  Builder.finish b ()

(* Canary/grace state is per-Vm: staging tenant A's canary must leave
   tenant B idle, and rolling B back must not cancel A's pending canary. *)
let test_canary_isolation () =
  let control = Rmt.Control.create ~seed:11 () in
  (match Rmt.Control.install control (build_named "pa" 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install pa: %s" e);
  (match Rmt.Control.install control (build_named "pb" 2) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install pb: %s" e);
  (match Rmt.Control.install_canary control ~invocations:8 (build_named "pa" 3) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "canary pa: %s" e);
  let status name =
    match Rmt.Control.canary_status control name with
    | Some s -> s
    | None -> Alcotest.failf "%s installed" name
  in
  check_bool "A's canary pending" true
    (match status "pa" with `Canary _ -> true | _ -> false);
  check_bool "B untouched by A's canary" true (status "pb" = `Idle);
  check_bool "rolling back idle B is a no-op" false
    (Rmt.Control.rollback_program control "pb");
  check_bool "A's canary survives B's rollback" true
    (match status "pa" with `Canary _ -> true | _ -> false);
  check_bool "A's canary cancels" true (Rmt.Control.rollback_program control "pa");
  check_bool "A idle after cancel" true (status "pa" = `Idle)

(* ---------------- Serving-layer staged rollout ---------------- *)

let submit_exn fleet ~tenant ~page =
  match Serve.Serving.submit fleet ~producer:0 ~tenant ~page with
  | `Admitted -> ()
  | `Throttled | `Backpressure -> Alcotest.fail "inline submit refused"

(* One tenant pinned to each shard, so every stage's canary sees shadow
   traffic. *)
let shard_tenants fleet n =
  Array.init n (fun s ->
      let rec find t =
        if Serve.Serving.shard_of_tenant fleet t = s then t else find (t + 1)
      in
      find 0)

let test_serve_staged_rollout_promotes () =
  let config = { Serve.Serving.default_config with shards = 4; max_batch = 8 } in
  let fleet, dps = Serve.Serving.create_datapath ~config () in
  let tenants = shard_tenants fleet 4 in
  let now = ref 1_000 in
  Serve.Serving.set_now fleet !now;
  let prog = Rkd.Prefetch_rmt.build_collect_program Rkd.Prefetch_rmt.default_params in
  (* Identical program text fed a constant page stream: the collect
     program mutates its context (history shift, last-page store) and the
     shadow copy is taken after the incumbent ran, so only a fixed point
     of that mutation — delta 0 under a constant page — shadow-runs
     divergence-free.  Every stage then promotes under a zero-divergence
     budget. *)
  (match
     Serve.Serving.staged_rollout ~invocations:4 ~max_divergences:0 ~grace:2 fleet ~dps
       ~program:prog ()
   with
  | `Unhealthy -> Alcotest.fail "healthy fleet reported unhealthy"
  | `Failed n -> Alcotest.failf "identical rollout failed (%d rollbacks)" n
  | `Started r ->
    let rec loop i =
      if i > 500 then Alcotest.fail "rollout did not settle"
      else begin
        now := !now + 1_000_000;
        Serve.Serving.set_now fleet !now;
        Array.iter (fun t -> submit_exn fleet ~tenant:t ~page:0) tenants;
        ignore (Serve.Serving.drain fleet : int);
        match Rkd.Fleet.Rollout.step r ~now:!now with
        | `In_flight -> loop (i + 1)
        | `Promoted -> ()
        | `Failed n -> Alcotest.failf "identical rollout rolled back (%d)" n
      end
    in
    loop 0;
    check_int "one canary per shard" 4 (Rkd.Fleet.Rollout.installs r))

let test_serve_staged_rollout_fails_stage0 () =
  let config = { Serve.Serving.default_config with shards = 4; max_batch = 8 } in
  let fleet, dps = Serve.Serving.create_datapath ~config () in
  let tenants = shard_tenants fleet 4 in
  let now = ref 1_000 in
  Serve.Serving.set_now fleet !now;
  let before = Array.map (fun dp -> Rmt.Vm.loaded (Serve.Shard.Datapath.vm dp)) dps in
  (* A biased candidate: returns page mod 2 + 5000 where the incumbent
     collect program returns a clamped delta in [-4096, 4096] — every
     shadow invocation diverges, so the zero-divergence budget trips on
     the very first stage. *)
  let biased =
    let open Rmt in
    let b =
      Builder.create ~name:Serve.Shard.Datapath.program_name ~vmem_size:1 ()
    in
    Builder.emit b (Insn.Ld_ctxt_k (0, Rkd.Hooks.key_page));
    Builder.emit b (Insn.Alu_imm (Insn.Mod, 0, 2));
    Builder.emit b (Insn.Alu_imm (Insn.Add, 0, 5000));
    Builder.emit b Insn.Exit;
    Builder.finish b ()
  in
  (match
     Serve.Serving.staged_rollout ~invocations:4 ~max_divergences:0 ~grace:2 fleet ~dps
       ~program:biased ()
   with
  | `Unhealthy -> Alcotest.fail "healthy fleet reported unhealthy"
  | `Failed n -> Alcotest.failf "failed before shadow traffic (%d)" n
  | `Started r ->
    let rec loop i =
      if i > 500 then Alcotest.fail "divergent rollout never failed"
      else begin
        now := !now + 1_000_000;
        Serve.Serving.set_now fleet !now;
        Array.iter (fun t -> submit_exn fleet ~tenant:t ~page:0) tenants;
        ignore (Serve.Serving.drain fleet : int);
        match Rkd.Fleet.Rollout.step r ~now:!now with
        | `In_flight -> loop (i + 1)
        | `Promoted -> Alcotest.fail "divergent candidate promoted"
        | `Failed n -> n
      end
    in
    let rollbacks = loop 0 in
    check_bool "the divergence was rolled back" true (rollbacks >= 1);
    check_int "only stage 0 was ever installed" 1 (Rkd.Fleet.Rollout.installs r));
  (* Every shard still runs its incumbent, and no canary is left behind. *)
  Array.iteri
    (fun i dp ->
      check_bool
        (Printf.sprintf "shard %d incumbent untouched" i)
        true
        (Rmt.Vm.loaded (Serve.Shard.Datapath.vm dp) == before.(i));
      check_bool
        (Printf.sprintf "shard %d idle" i)
        true
        (Rmt.Control.canary_status (Serve.Shard.Datapath.control dp)
           Serve.Shard.Datapath.program_name
         = Some `Idle))
    dps

let suite =
  [ ( "fleet",
      [ Alcotest.test_case "soak digest identical across pool widths" `Slow
          test_width_determinism;
        Alcotest.test_case "faulted soak digest identical across pool widths" `Slow
          test_width_determinism_faulted;
        Alcotest.test_case "drift episodes retrain, promote and recover accuracy" `Slow
          test_drift_recovery;
        Alcotest.test_case "drift storm: bounded installs, breakers re-close" `Slow
          test_storm_no_thrash;
        Alcotest.test_case "registry views match the fleet report" `Slow
          test_registry_views;
        Alcotest.test_case "adapt: just-above-low stream never degrades" `Quick
          test_adapt_above_low;
        Alcotest.test_case "adapt: just-below-high stream never recovers" `Quick
          test_adapt_below_high;
        Alcotest.test_case "adapt: dwell floor prevents flapping" `Quick
          test_adapt_dwell;
        Alcotest.test_case "model-update backoff is per tenant" `Quick
          test_backoff_isolation;
        Alcotest.test_case "canary state is per program" `Quick test_canary_isolation;
        Alcotest.test_case "serve staged rollout promotes across shards" `Quick
          test_serve_staged_rollout_promotes;
        Alcotest.test_case "serve staged rollout fails fast and restores" `Quick
          test_serve_staged_rollout_fails_stage0
      ] )
  ]
