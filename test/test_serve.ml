(* Tests for the sharded serving layer (DESIGN.md section 14): SPSC ring
   semantics, digest determinism across shard counts and drain modes,
   registry counters vs the fleet's accessors, per-shard breaker
   isolation, fault-plan capture into pinned workers, the obs stripe
   guard, and steady-state allocation. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Ring ---------------- *)

let test_ring_fifo_wrap_full () =
  let r = Serve.Ring.create ~capacity:6 in
  check_int "capacity rounds up to a power of two" 8 (Serve.Ring.capacity r);
  check_bool "fresh ring is empty" true (Serve.Ring.is_empty r);
  for i = 0 to 7 do
    check_bool "push admits while free" true
      (Serve.Ring.try_push r ~tenant:i ~page:(i * 10) ~stamp:(i * 100))
  done;
  check_bool "full ring refuses" false (Serve.Ring.try_push r ~tenant:99 ~page:0 ~stamp:0);
  check_int "length sees the backlog" 8 (Serve.Ring.length r);
  let tenants = Array.make 8 (-1)
  and pages = Array.make 8 (-1)
  and stamps = Array.make 8 (-1) in
  let n = Serve.Ring.drain_into r ~max:5 tenants pages stamps in
  check_int "drain honors max" 5 n;
  for i = 0 to 4 do
    check_int "tenant fifo" i tenants.(i);
    check_int "page fifo" (i * 10) pages.(i);
    check_int "stamp fifo" (i * 100) stamps.(i)
  done;
  (* Refill past the array edge: cursors are monotonic, slots wrap. *)
  for i = 8 to 12 do
    check_bool "push after partial drain" true
      (Serve.Ring.try_push r ~tenant:i ~page:(i * 10) ~stamp:(i * 100))
  done;
  let n = Serve.Ring.drain_into r ~max:8 tenants pages stamps in
  check_int "drains the remainder" 8 n;
  for i = 0 to 7 do
    check_int "fifo across the wrap" (5 + i) tenants.(i)
  done;
  check_bool "drained ring is empty" true (Serve.Ring.is_empty r)

(* [length]/[is_empty] snapshot tail strictly before head, so a
   concurrent observer always reads a value within [0, capacity]: the
   producer can only grow tail after the snapshot (undercounting is
   fine), and a head read after the tail read can only have advanced
   (which shrinks, never inflates, the difference).  The opposite order
   admits values above capacity.  A third domain hammers [length] while
   producer and consumer run flat out, then checks quiescent exactness. *)
let test_ring_length_bounds_under_concurrency () =
  let capacity = 8 in
  let r = Serve.Ring.create ~capacity in
  let pushes = 2_000 in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let observer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let n = Serve.Ring.length r in
          if n < 0 || n > capacity then Atomic.incr bad;
          if Serve.Ring.is_empty r && n > capacity then Atomic.incr bad
        done)
  in
  let producer =
    Domain.spawn (fun () ->
        let sent = ref 0 in
        while !sent < pushes do
          if Serve.Ring.try_push r ~tenant:!sent ~page:0 ~stamp:0 then incr sent
          else Domain.cpu_relax ()
        done)
  in
  let tenants = Array.make capacity (-1)
  and pages = Array.make capacity (-1)
  and stamps = Array.make capacity (-1) in
  let drained = ref 0 in
  while !drained < pushes do
    let n = Serve.Ring.drain_into r ~max:capacity tenants pages stamps in
    if n = 0 then Domain.cpu_relax () else drained := !drained + n
  done;
  Domain.join producer;
  Atomic.set stop true;
  Domain.join observer;
  check_int "no out-of-bounds length observed" 0 (Atomic.get bad);
  check_int "quiescent length is exact" 0 (Serve.Ring.length r);
  check_bool "quiescent ring is empty" true (Serve.Ring.is_empty r)

(* ---------------- Shard park exception safety ---------------- *)

let null_sink =
  { Serve.Shard.run = (fun ~n:_ ~tenants:_ ~pages:_ ~now:_ -> ()); digest = (fun () -> 0) }

exception Probe_fault

(* A raise out of [should_stop] must leave the shard parkable: the
   parked flag cleared and the park mutex released ([Fun.protect]), so
   the next push/wake/park cycle behaves normally. *)
let test_park_exception_safety () =
  let shard =
    Serve.Shard.create ~index:90 ~producers:1 ~ring_capacity:8 ~max_batch:4 null_sink
  in
  (match Serve.Shard.park shard ~should_stop:(fun () -> raise Probe_fault) with
   | () -> Alcotest.fail "faulting stop probe did not propagate"
   | exception Probe_fault -> ());
  (* The mutex is free and the flag cleared: a full push -> wake -> park
     -> drain cycle completes without deadlock. *)
  check_bool "event admitted after the fault" true
    (Serve.Ring.try_push (Serve.Shard.ring shard 0) ~tenant:1 ~page:2 ~stamp:3);
  Serve.Shard.wake shard;
  Serve.Shard.park shard ~should_stop:(fun () -> false);
  check_int "pushed event drains on the next sweep" 1 (Serve.Shard.drain_once shard ~now:0);
  (* Nothing queued now: park sleeps until a wake, proving the flag and
     mutex state survived the fault. *)
  let parked = ref false in
  let consumer =
    Domain.spawn (fun () ->
        Serve.Shard.park shard ~should_stop:(fun () ->
            parked := true;
            false))
  in
  while not !parked do
    Domain.cpu_relax ()
  done;
  Serve.Shard.wake_force shard;
  Domain.join consumer

(* ---------------- Shared fixtures ---------------- *)

let tenant_on fleet shard =
  let rec find t =
    if Serve.Serving.shard_of_tenant fleet t = shard then t else find (t + 1)
  in
  find 0

let submit_exn fleet ~tenant ~page =
  match Serve.Serving.submit fleet ~producer:0 ~tenant ~page with
  | `Admitted -> ()
  | `Throttled -> Alcotest.fail "unlimited fleet throttled"
  | `Backpressure -> Alcotest.fail "unexpected backpressure"

(* Stock-fallback results shard [i]'s breaker served, read from its
   registry view as [rkdctl stats] does. *)
let fallbacks_of i =
  let name =
    Printf.sprintf "rmt.serve.%d.breaker.%s.fallback_served" i Serve.Shard.Datapath.hook
  in
  match Obs.Snapshot.scalar (Obs.Registry.snapshot ()) name with
  | Some n -> n
  | None -> Alcotest.failf "%s is not registered" name

(* ---------------- Digest determinism ---------------- *)

let serve_trace () =
  let rng = Kml.Rng.create 0x5e4e in
  Ksim.Workload_mem.multi_tenant ~rng ~tenants:12 ~events_per_tenant:40 ()

(* Feed the same trace to a fleet of [shards] shards, inline or pinned,
   and report (served, digest). *)
let run_fleet ~shards ~pinned trace =
  let config =
    { Serve.Serving.default_config with shards; ring_capacity = 128; max_batch = 16 }
  in
  let fleet, _dps = Serve.Serving.create_datapath ~config () in
  if pinned then Serve.Serving.start fleet;
  List.iter
    (fun (a : Ksim.Workload_mem.access) ->
      let rec push () =
        match Serve.Serving.submit fleet ~producer:0 ~tenant:a.pid ~page:a.page with
        | `Admitted -> ()
        | `Throttled -> Alcotest.fail "unlimited fleet throttled"
        | `Backpressure ->
          if pinned then Domain.cpu_relax ()
          else ignore (Serve.Serving.drain fleet : int);
          push ()
      in
      push ())
    trace;
  if pinned then Serve.Serving.stop fleet else Serve.Serving.drain_until_idle fleet;
  (Serve.Serving.served fleet, Serve.Serving.digest fleet)

let test_digest_across_widths () =
  let trace = serve_trace () in
  let n = List.length trace in
  let served1, d1 = run_fleet ~shards:1 ~pinned:false trace in
  let served3, d3 = run_fleet ~shards:3 ~pinned:false trace in
  let served4, d4 = run_fleet ~shards:4 ~pinned:true trace in
  check_int "inline/1 serves every event" n served1;
  check_int "inline/3 serves every event" n served3;
  check_int "pinned/4 serves every event" n served4;
  check_bool "digest is nontrivial" true (d1 <> 0);
  check_bool "1 and 3 shards agree" true (d1 = d3);
  check_bool "inline and pinned agree" true (d1 = d4)

(* The trace [rkdctl serve --tenants 32 --events 10000 --shards 1 --seed
   0x7569] serves, through the fleet shape it uses (one inline shard, a
   1024-slot ring, 64-event drains): perfbench's serve-bursty replays the
   same trace and checks the same digest. *)
let test_clean_digest_pinned () =
  let trace =
    Ksim.Workload_mem.multi_tenant ~rng:(Kml.Rng.create 0x7569) ~tenants:32
      ~events_per_tenant:10_000 ()
  in
  let config =
    { Serve.Serving.default_config with shards = 1; ring_capacity = 1024; max_batch = 64 }
  in
  let fleet, _dps = Serve.Serving.create_datapath ~config () in
  List.iter
    (fun (a : Ksim.Workload_mem.access) ->
      let rec push () =
        match Serve.Serving.submit fleet ~producer:0 ~tenant:a.pid ~page:a.page with
        | `Admitted -> ()
        | `Throttled -> Alcotest.fail "unlimited fleet throttled"
        | `Backpressure ->
          ignore (Serve.Serving.drain fleet : int);
          push ()
      in
      push ())
    trace;
  Serve.Serving.drain_until_idle fleet;
  check_int "every event served" 320_000 (Serve.Serving.served fleet);
  Alcotest.(check string) "clean digest" "3ebd3fac8494f7e5"
    (Printf.sprintf "%016x" (Serve.Serving.digest fleet))

(* Feed [trace] to a one-shard inline fleet in drains of [drain] events:
   submit that many, then drain until idle.  Returns (served, digest). *)
let digest_in_drains ~max_batch ~drain trace =
  let config =
    { Serve.Serving.default_config with shards = 1; ring_capacity = 128; max_batch }
  in
  let fleet, _dps = Serve.Serving.create_datapath ~config () in
  List.iteri
    (fun i (a : Ksim.Workload_mem.access) ->
      submit_exn fleet ~tenant:a.pid ~page:a.page;
      if (i + 1) mod drain = 0 then Serve.Serving.drain_until_idle fleet)
    trace;
  Serve.Serving.drain_until_idle fleet;
  (Serve.Serving.served fleet, Serve.Serving.digest fleet)

(* Batch boundaries must not reach a tenant's results: the digest folds
   every tenant's result sequence, so equal digests for drains of 1, 7
   and 64 events at [max_batch] 8 and 64 mean every tenant saw the same
   results as under one-event dispatch. *)
let prop_digest_batching_invariant =
  QCheck2.Test.make ~name:"datapath digest is independent of drain size and max_batch"
    ~count:40
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(triple (int_range 1 40) (int_range 1 8) (int_range 0 1_000_000))
    (fun (tenants, burst, seed) ->
      let trace =
        Ksim.Workload_mem.multi_tenant ~rng:(Kml.Rng.create seed) ~tenants
          ~events_per_tenant:(max 1 (300 / tenants)) ~burst ()
      in
      let expected =
        (List.length trace, snd (digest_in_drains ~max_batch:64 ~drain:1 trace))
      in
      List.for_all
        (fun (max_batch, drain) -> digest_in_drains ~max_batch ~drain trace = expected)
        [ (8, 1); (8, 7); (8, 64); (64, 7); (64, 64) ])

(* ---------------- Registry counters vs fleet accessors ---------------- *)

(* The process-wide counters an external reader (the perfbench ledger)
   takes deltas of must agree with the fleet's own accessors — a renamed
   or deleted counter would otherwise read as a silent 0.  One inline
   shard, so the shard-0 counters see only this fleet's events. *)
let deleted_metrics =
  [ "rmt.pipeline.firings"; "rmt.table.lookups"; "rmt.table.default_hits";
    "rmt.vm.invocations"; "rmt.vm.steps"; "rmt.jit.runs"; "rmt.interp.runs";
    "rmt.serve.latency_ns" ]

let test_registry_counters_match_accessors () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let config = { Serve.Serving.default_config with shards = 1; max_batch = 16 } in
      let fleet, dps = Serve.Serving.create_datapath ~config () in
      let dp = dps.(0) in
      let vm = Serve.Shard.Datapath.vm dp in
      let trace = serve_trace () in
      let steps_before = Rmt.Vm.total_steps vm in
      let before = Obs.Registry.snapshot () in
      List.iter
        (fun (a : Ksim.Workload_mem.access) ->
          submit_exn fleet ~tenant:a.pid ~page:a.page;
          if Serve.Serving.admitted fleet land 15 = 0 then
            ignore (Serve.Serving.drain fleet : int))
        trace;
      Serve.Serving.drain_until_idle fleet;
      let after = Obs.Registry.snapshot () in
      let d = Obs.Snapshot.diff ~before ~after in
      let delta name =
        match Obs.Snapshot.scalar d name with
        | Some v -> v
        | None -> Alcotest.failf "%s is not registered" name
      in
      let served = Serve.Serving.served fleet in
      check_int "every event served" (List.length trace) served;
      check_int "rmt.serve.0.invocations = served" served (delta "rmt.serve.0.invocations");
      check_int "engine steps = vm steps"
        (Rmt.Vm.total_steps vm - steps_before)
        (delta "rmt.jit.steps" + delta "rmt.interp.steps");
      check_bool "batch slots <= served" true (delta "rmt.jit.batch_slots" <= served);
      (* The table default serves every tenant: no per-tenant entries. *)
      let table = Serve.Shard.Datapath.table dp in
      check_int "no table inserts" 0 (delta "rmt.table.inserts");
      check_int "no table entries" 0 (Rmt.Table.entry_count table);
      check_int "every lookup hits the default" (Rmt.Table.hits table)
        (Rmt.Table.default_hits table);
      List.iter
        (fun name ->
          check_bool (name ^ " is gone") true
            (Obs.Snapshot.scalar after name = None && Obs.Snapshot.histo after name = None))
        deleted_metrics)

(* [<view_ns>.batch_slots] is observed once per dispatch.  Fed in
   windows of 16 events, one drain each, a window makes as many
   dispatches (rounds) as the most events one tenant has in it; so the
   histogram's count is the sum of those maxima and its sum the events
   served. *)
let test_batch_slots_counts_dispatches () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let window = 16 in
      let config = { Serve.Serving.default_config with shards = 1; max_batch = window } in
      let fleet, dps = Serve.Serving.create_datapath ~config () in
      let h = Serve.Shard.Datapath.batch_slots dps.(0) in
      let count0 = Obs.Histo.count h and sum0 = Obs.Histo.sum h in
      let trace = Array.of_list (serve_trace ()) in
      let last = Array.length trace - 1 in
      let per_tenant = Hashtbl.create 16 in
      let rounds = ref 0 in
      Array.iteri
        (fun i (a : Ksim.Workload_mem.access) ->
          submit_exn fleet ~tenant:a.pid ~page:a.page;
          let k = 1 + Option.value ~default:0 (Hashtbl.find_opt per_tenant a.pid) in
          Hashtbl.replace per_tenant a.pid k;
          if (i + 1) mod window = 0 || i = last then begin
            rounds := !rounds + Hashtbl.fold (fun _ k acc -> max k acc) per_tenant 0;
            check_int "one drain serves the window"
              (Hashtbl.fold (fun _ k acc -> k + acc) per_tenant 0)
              (Serve.Serving.drain fleet);
            Hashtbl.reset per_tenant
          end)
        trace;
      let served = Serve.Serving.served fleet in
      check_int "every event served" (Array.length trace) served;
      check_int "batch_slots sum = events served" served (Obs.Histo.sum h - sum0);
      check_int "batch_slots count = dispatches" !rounds (Obs.Histo.count h - count0);
      check_bool "dispatches carry several events" true (2 * !rounds < served))

(* ---------------- Per-shard breaker isolation ---------------- *)

let test_breaker_trip_is_shard_local () =
  let config = { Serve.Serving.default_config with shards = 2; max_batch = 8 } in
  let fleet, dps = Serve.Serving.create_datapath ~config () in
  let t0 = tenant_on fleet 0 and t1 = tenant_on fleet 1 in
  submit_exn fleet ~tenant:t0 ~page:1;
  submit_exn fleet ~tenant:t1 ~page:1;
  ignore (Serve.Serving.drain fleet : int);
  let d1_before = Serve.Shard.Datapath.digest dps.(1) in
  (* Inline mode: the calling domain is every shard's consumer, so it may
     trip shard 0's breaker directly between drains. *)
  Rmt.Breaker.trip (Serve.Shard.Datapath.breaker dps.(0)) ~now:0;
  for i = 2 to 9 do
    submit_exn fleet ~tenant:t0 ~page:i;
    submit_exn fleet ~tenant:t1 ~page:i
  done;
  Serve.Serving.drain_until_idle fleet;
  check_bool "tripped shard is open" true
    (Rmt.Breaker.state (Serve.Shard.Datapath.breaker dps.(0)) = Rmt.Breaker.Open);
  check_bool "tripped shard serves the stock fallback" true (fallbacks_of 0 >= 8);
  check_int "peer shard never falls back" 0 (fallbacks_of 1);
  check_bool "peer breaker stays closed" true
    (Rmt.Breaker.state (Serve.Shard.Datapath.breaker dps.(1)) = Rmt.Breaker.Closed);
  check_bool "peer keeps making real decisions" true
    (Serve.Shard.Datapath.digest dps.(1) <> d1_before);
  check_int "every event was still served" 18 (Serve.Serving.served fleet)

(* ---------------- Per-shard canary transactions ---------------- *)

(* ---------------- Fault capture into pinned workers ---------------- *)

(* Regression for the serving chaos mode: fault plans are domain-local
   (DLS), so a plan armed on the control domain must be captured by
   [Serving.start] and re-armed inside each pinned shard worker —
   otherwise RKD_FAULTS never reaches the datapaths it is meant to
   shake. *)
let test_fault_plan_reaches_pinned_workers () =
  let before = Rmt.Fault.injected Rmt.Fault.Table_miss in
  Rmt.Fault.with_plan ~seed:11
    [ (Rmt.Fault.Table_miss, 1.0) ]
    (fun () ->
      let config = { Serve.Serving.default_config with shards = 2 } in
      let fleet, _dps = Serve.Serving.create_datapath ~config () in
      Serve.Serving.start fleet;
      for i = 0 to 63 do
        let rec push () =
          match
            Serve.Serving.submit fleet ~producer:0 ~tenant:(i land 7) ~page:i
          with
          | `Admitted -> ()
          | `Throttled -> Alcotest.fail "unlimited fleet throttled"
          | `Backpressure ->
            Domain.cpu_relax ();
            push ()
        in
        push ()
      done;
      Serve.Serving.stop fleet;
      check_int "every event served under faults" 64 (Serve.Serving.served fleet));
  let fired = Rmt.Fault.injected Rmt.Fault.Table_miss - before in
  check_bool "plan armed on the control domain fired inside shard workers" true
    (fired > 0)

(* ---------------- Obs stripe guard ---------------- *)

let test_stripe_guard () =
  let cap = Obs.stripe_capacity in
  check_bool "stripe capacity is positive" true (cap > 0);
  check_int "in-range id maps to itself" 3 (Obs.stripe_of_id 3);
  let big = (cap * 7) + 5 in
  let s = Obs.stripe_of_id big in
  check_bool "overflow id is masked into range" true (s >= 0 && s < cap);
  check_bool "overflow high-water recorded" true (Obs.stripe_overflow_max_id () >= big)

(* ---------------- Steady-state allocation ---------------- *)

(* Same tolerance story as test_batch: Gc.minor_words itself boxes a
   float, so a small measurement-noise allowance; real per-event
   allocation would cost >= 2 words x 8 events x 1000 passes. *)
let test_zero_alloc_steady_state () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let config =
        { Serve.Serving.default_config with
          shards = 1;
          max_batch = 16;
          ring_capacity = 64 }
      in
      let fleet, _dps = Serve.Serving.create_datapath ~config () in
      Serve.Serving.set_now fleet 1_000;
      let pass () =
        for t = 0 to 7 do
          match
            Serve.Serving.submit fleet ~producer:0 ~tenant:t ~page:(t * 17 land 511)
          with
          | `Admitted -> ()
          | `Throttled | `Backpressure -> Alcotest.fail "steady-state submit refused"
        done;
        ignore (Serve.Serving.drain fleet : int)
      in
      for _ = 1 to 100 do
        pass ()
      done;
      let before = Gc.minor_words () in
      for _ = 1 to 1_000 do
        pass ()
      done;
      let delta = Gc.minor_words () -. before in
      if delta > 256.0 then
        Alcotest.failf "steady-state serve loop allocated %.0f minor words" delta)

let suite =
  [ ( "serve",
      [ Alcotest.test_case "ring fifo, wrap, full" `Quick test_ring_fifo_wrap_full;
        Alcotest.test_case "ring length bounded under concurrency" `Quick
          test_ring_length_bounds_under_concurrency;
        Alcotest.test_case "park survives a faulting stop probe" `Quick
          test_park_exception_safety;
        Alcotest.test_case "digest stable across widths and modes" `Quick
          test_digest_across_widths;
        Alcotest.test_case "clean digest pinned on the rkdctl serve trace" `Quick
          test_clean_digest_pinned;
        QCheck_alcotest.to_alcotest prop_digest_batching_invariant;
        Alcotest.test_case "registry counters match fleet accessors" `Quick
          test_registry_counters_match_accessors;
        Alcotest.test_case "batch_slots counts every dispatch" `Quick
          test_batch_slots_counts_dispatches;
        Alcotest.test_case "breaker trip is shard-local" `Quick
          test_breaker_trip_is_shard_local;
        Alcotest.test_case "fault plan reaches pinned workers" `Quick
          test_fault_plan_reaches_pinned_workers;
        Alcotest.test_case "obs stripe guard masks overflow ids" `Quick
          test_stripe_guard;
        Alcotest.test_case "steady-state serve loop is allocation-free" `Quick
          test_zero_alloc_steady_state
      ] )
  ]
