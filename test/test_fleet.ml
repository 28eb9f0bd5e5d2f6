(* Fleet control plane (DESIGN.md section 17): width-deterministic soaks,
   drift-to-recovery behaviour, storm thrash bounds, telemetry views,
   Adapt band-edge regressions and per-program canary isolation. *)

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
        Alcotest.test_case "canary state is per program" `Quick test_canary_isolation
      ] )
  ]
