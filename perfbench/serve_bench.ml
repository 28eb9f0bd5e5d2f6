(* The serving-plane workload, serve-bursty.

   One shard, one producer, drained inline on the calling domain.  Each run
   sets up three identically warmed fleets from the same seeded trace and
   then plays rounds: fleet A serves one closed-loop pass untraced, fleet B
   one open-loop pass, fleet C one closed-loop pass (traced in a traced
   run), and one more set-up is timed and thrown away.  Interleaving
   spreads every phase over the whole run, so a slow spell of the host
   lands on all of them.  Every fleet serves the same events in the same
   per-tenant order, so their digests must agree. *)

open Perfkit

(* 32 tenants in bursts of up to 8: same-tenant runs average 4.65 events,
   so the datapath cuts batches at about 1.27 slots.  At 10k events per
   tenant and seed 0x7569 this is the trace behind the reference digest. *)
let tenants = 32
let burst = 8
let events_per_tenant = 10_000

let default_seed = 0x7569
let reference_digest = 0x3ebd3fac8494f7e5

let config =
  { Serve.Serving.shards = 1;
    producers = 1;
    ring_capacity = 4096;
    max_batch = 64;
    tokens_per_sec = 0;
    burst = 0 }

(* Open-loop offered load: one event due every 4 us (250,000 events/s),
   about a fifth of what one shard serves closed-loop. *)
let period_ns = 4_000

(* Share of the run's seconds the open-loop passes are scheduled for. *)
let open_share = 0.6

type trace = { tenants_col : int array; pages_col : int array; warm : int }

(* The trace, and its warm-up prefix: every event up to each tenant's
   first one, so the measured phases run on admitted tenants only. *)
let make_trace ~seed =
  let accesses =
    Ksim.Workload_mem.multi_tenant ~rng:(Kml.Rng.create seed) ~tenants ~events_per_tenant ~burst ()
  in
  let a = Array.of_list accesses in
  let tenants_col = Array.map (fun x -> x.Ksim.Mem_sim.pid) a in
  let pages_col = Array.map (fun x -> x.Ksim.Mem_sim.page) a in
  let seen = Array.make tenants false in
  let warm = ref 0 in
  Array.iteri
    (fun i t ->
      if not seen.(t) then begin
        seen.(t) <- true;
        warm := i + 1
      end)
    tenants_col;
  { tenants_col; pages_col; warm = !warm }

(* --- span names ------------------------------------------------------- *)

let s_pass = 0
let s_submit = 1
let s_drain = 2
let s_sink = 3
let n_names = 4

type tracer = { spans : Spans.t; mutable drain_id : int; mutable run : int }

(* The datapath sink, timed from outside: one span per sink call, child of
   the drain call that made it. *)
let traced_sink tr (s : Serve.Shard.sink) =
  { s with
    Serve.Shard.run =
      (fun ~n ~tenants ~pages ~now ->
        let id =
          Spans.enter tr.spans ~name:s_sink ~parent:tr.drain_id ~run:tr.run (Clock.now_ns ())
        in
        s.Serve.Shard.run ~n ~tenants ~pages ~now;
        Spans.leave tr.spans id (Clock.now_ns ())) }

type fleet = { serving : Serve.Serving.t; dp : Serve.Shard.Datapath.dp }

let create_fleet ~wrap =
  let dp = ref None in
  let serving =
    Serve.Serving.create ~config
      ~make_sink:(fun ~index:_ ~view_ns ->
        let d = Serve.Shard.Datapath.create ~view_ns ~max_batch:config.max_batch () in
        dp := Some d;
        wrap (Serve.Shard.Datapath.sink d))
      ()
  in
  match !dp with Some dp -> { serving; dp } | None -> assert false

(* --- closed loop -------------------------------------------------------- *)

(* Submit from [k] until the ring refuses or [stop]; returns the first
   event not admitted.  Top-level recursion: no closure per event. *)
let rec submit_run serving tr k stop =
  if k >= stop then k
  else
    match
      Serve.Serving.submit serving ~producer:0 ~tenant:(Array.unsafe_get tr.tenants_col k)
        ~page:(Array.unsafe_get tr.pages_col k)
    with
    | `Admitted -> submit_run serving tr (k + 1) stop
    | `Backpressure -> k
    | `Throttled -> failwith "serve: no rate limit is configured, yet a submit was throttled"

let drain serving =
  Serve.Serving.set_now serving (Clock.now_ns ());
  Serve.Serving.drain serving

(* Closed-loop throughput is timed in segments of this many admitted
   events, by process CPU time, which leaves out the spells in which the
   host deschedules this vCPU to serve other tenants (steal). *)
let segment = 16_384

(* Open-loop latency is summarised over segments of this many events in
   due order: 2 ms of schedule, shorter than the spells in which the host
   runs another tenant on this vCPU.  Over segments of 16 ms, a run in a
   busy spell of the host read a p90 65% above a calm run. *)
let lat_segment = 512

(* Saturation: submit until the ring is full, drain one sweep, repeat;
   then drain until idle.  Events are [first, first + len).  [rates]
   receives the events per CPU-second of every whole segment. *)
let closed_pass ?rates serving tr ~first ~len =
  let stop = first + len in
  let k = ref first in
  let seg_k = ref first and seg_c = ref (Clock.cpu_ns ()) in
  while !k < stop do
    k := submit_run serving tr !k stop;
    if !k < stop then ignore (drain serving : int);
    match rates with
    | Some r when !k - !seg_k >= segment ->
      let cpu = Clock.cpu_ns () in
      r := (float_of_int (!k - !seg_k) *. 1e9 /. float_of_int (cpu - !seg_c)) :: !r;
      seg_k := !k;
      seg_c := cpu
    | _ -> ()
  done;
  while drain serving > 0 do () done

let traced_drain serving t ~parent =
  let id = Spans.enter t.spans ~name:s_drain ~parent ~run:t.run (Clock.now_ns ()) in
  t.drain_id <- id;
  let n = drain serving in
  Spans.leave t.spans id (Clock.now_ns ());
  t.drain_id <- -1;
  n

(* The same loop with a span per pass, per run of submits and per drain
   call (the sink spans nest inside the drains). *)
let traced_pass serving tr t ~first ~len =
  let stop = first + len in
  let root = Spans.enter t.spans ~name:s_pass ~parent:(-1) ~run:t.run (Clock.now_ns ()) in
  let k = ref first in
  while !k < stop do
    let sid = Spans.enter t.spans ~name:s_submit ~parent:root ~run:t.run (Clock.now_ns ()) in
    k := submit_run serving tr !k stop;
    Spans.leave t.spans sid (Clock.now_ns ());
    if !k < stop then ignore (traced_drain serving t ~parent:root : int)
  done;
  while traced_drain serving t ~parent:root > 0 do () done;
  Spans.leave t.spans root (Clock.now_ns ())

(* --- open loop ---------------------------------------------------------- *)

type load = {
  lat_ns : int array;  (** per event: drain return minus due time *)
  mutable served : int;  (** events timed so far, over all passes *)
  mutable late_max_ns : int;  (** worst generator lateness at submit *)
  mutable backlog_max : int;  (** peak admitted-but-unserved events *)
  mutable backpressure : int;  (** submits refused by a full ring (retried) *)
  mutable drains : int;
  qsum : int array;  (** backlog summed per quarter of each pass *)
  qcnt : int array;
}

let make_load total =
  { lat_ns = Array.make total 0;
    served = 0;
    late_max_ns = 0;
    backlog_max = 0;
    backpressure = 0;
    drains = 0;
    qsum = Array.make 4 0;
    qcnt = Array.make 4 0 }

(* One open-loop pass over [first, first + len).  Events are due every
   [period_ns] from a fixed start, whatever the fleet does, and each is
   timed from its due time to the return of the drain that served it: one
   shard drains FIFO, so a drain serving [n] events served the next [n] in
   due order.  The generator never waits for a reply; when nothing is due
   and nothing is queued it spins on the clock. *)
let open_pass serving tr ld ~first ~len =
  let base = ld.served in
  let j = ref 0 and served = ref 0 in
  (* The schedule starts 1 ms out, so the first event is not born late. *)
  let t0 = Clock.now_ns () + 1_000_000 in
  while !served < len do
    let now = Clock.now_ns () in
    let refused = ref false in
    while (not !refused) && !j < len && t0 + (!j * period_ns) <= now do
      let k = first + !j in
      match
        Serve.Serving.submit serving ~producer:0 ~tenant:(Array.unsafe_get tr.tenants_col k)
          ~page:(Array.unsafe_get tr.pages_col k)
      with
      | `Admitted ->
        let late = now - (t0 + (!j * period_ns)) in
        if late > ld.late_max_ns then ld.late_max_ns <- late;
        incr j
      | `Backpressure ->
        ld.backpressure <- ld.backpressure + 1;
        refused := true
      | `Throttled -> failwith "serve: no rate limit is configured, yet a submit was throttled"
    done;
    let backlog = !j - !served in
    if backlog > 0 then begin
      if backlog > ld.backlog_max then ld.backlog_max <- backlog;
      let q = min 3 (!j * 4 / len) in
      ld.qsum.(q) <- ld.qsum.(q) + backlog;
      ld.qcnt.(q) <- ld.qcnt.(q) + 1;
      let n = drain serving in
      let done_ns = Clock.now_ns () in
      for e = !served to !served + n - 1 do
        Array.unsafe_set ld.lat_ns (base + e) (done_ns - (t0 + (e * period_ns)))
      done;
      served := !served + n;
      ld.drains <- ld.drains + 1
    end
  done;
  ld.served <- base + len

let quarter_backlog ld = Array.init 4 (fun q -> Out.ratio ld.qsum.(q) ld.qcnt.(q))

(* A backlog that rises through every quarter of the passes and ends above
   one drain batch is still growing: the offered load is not served. *)
let sustained ld =
  let q = quarter_backlog ld in
  not (q.(0) < q.(1) && q.(1) < q.(2) && q.(2) < q.(3) && q.(3) > float_of_int config.max_batch)

(* --- registry and Gc readings ----------------------------------------- *)

let counter snap name =
  match Obs.Snapshot.scalar snap name with Some v -> v | None -> 0

(* Registry counters summed over the calls wrapped by [around]. *)
let counting names =
  let sums = List.map (fun nm -> (nm, ref 0)) names in
  let around f =
    let before = Obs.Registry.snapshot () in
    f ();
    let after = Obs.Registry.snapshot () in
    List.iter (fun (nm, sum) -> sum := !sum + counter after nm - counter before nm) sums
  in
  (around, fun nm -> !(List.assoc nm sums))

(* --- the workload ------------------------------------------------------- *)

let seconds_of = Out.seconds_of

let run ~seed ~seconds ~trace =
  let c = Out.checks () in
  let tracer = { spans = Spans.create (if trace then 1 lsl 18 else 0); drain_id = -1; run = -1 } in
  (* Set-ups are timed in process CPU time; the first from process start.
     Three build the fleets the run measures, and each round times one more
     that it throws away, so the median set-up is taken over the whole run
     and not over its first few hundred milliseconds. *)
  let setup ~since ~wrap =
    let tr = make_trace ~seed in
    let f = create_fleet ~wrap in
    closed_pass f.serving tr ~first:0 ~len:tr.warm;
    (f, tr, Clock.cpu_ns () - since)
  in
  let fa, tr, setup_a = setup ~since:0 ~wrap:Fun.id in
  let fb, _, setup_b = setup ~since:(Clock.cpu_ns ()) ~wrap:Fun.id in
  let inserts0 = counter (Obs.Registry.snapshot ()) "rmt.table.inserts" in
  let fc, _, setup_c =
    setup ~since:(Clock.cpu_ns ()) ~wrap:(if trace then traced_sink tracer else Fun.id)
  in
  let warm_inserts = counter (Obs.Registry.snapshot ()) "rmt.table.inserts" - inserts0 in
  let setups = ref [ setup_c; setup_b; setup_a ] in
  let n = Array.length tr.tenants_col in
  let len = n - tr.warm in
  (* From the nominal trace length, not the seed's warm-up prefix, so the
     round count never depends on the seed. *)
  let nominal = tenants * events_per_tenant in
  let passes =
    max 2
      (int_of_float
         (Float.round
            (open_share *. float_of_int seconds *. 1e9 /. float_of_int (nominal * period_ns))))
  in
  Out.line "serve-bursty: %d events, %d tenants, warm-up prefix %d; %d rounds of %d events per fleet"
    n tenants tr.warm passes len;
  let rates = ref [] in
  let ld = make_load (passes * len) in
  let around_a, count_a =
    counting [ "rmt.jit.batch_slots"; "rmt.jit.batch_runs"; "rmt.jit.steps"; "rmt.interp.steps" ]
  in
  let around_b, count_b = counting [ "rmt.serve.0.invocations"; "rmt.serve.0.batches" ] in
  let minor = ref 0.0 and majors = ref 0 and cpu_a = ref 0 and cpu_c = ref 0 in
  for p = 1 to passes do
    (* Fleet A: closed loop, untraced, with registry and Gc deltas. *)
    around_a (fun () ->
        let g0 = Gc.quick_stat () and c0 = Clock.cpu_ns () in
        closed_pass ~rates fa.serving tr ~first:tr.warm ~len;
        let g1 = Gc.quick_stat () in
        cpu_a := !cpu_a + (Clock.cpu_ns () - c0);
        minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections));
    (* Warm-up plus one pass is the whole trace once: at the default seed
       that is the trace behind the reference digest. *)
    if p = 1 && seed = default_seed then
      Out.check c "digest after one pass equals 3ebd3fac8494f7e5"
        (Serve.Serving.digest fa.serving = reference_digest);
    (* Fleet B: open loop. *)
    around_b (fun () -> open_pass fb.serving tr ld ~first:tr.warm ~len);
    (* Fleet C: closed loop again, traced in a traced run. *)
    let c0 = Clock.cpu_ns () in
    if trace then begin
      tracer.run <- p;
      traced_pass fc.serving tr tracer ~first:tr.warm ~len
    end
    else closed_pass ~rates fc.serving tr ~first:tr.warm ~len;
    cpu_c := !cpu_c + (Clock.cpu_ns () - c0);
    let _, _, s = setup ~since:(Clock.cpu_ns ()) ~wrap:Fun.id in
    setups := s :: !setups
  done;
  let setups = Array.of_list (List.rev !setups) in
  (* Output checks. *)
  let expected = tr.warm + (passes * len) in
  List.iter
    (fun (label, f) ->
      Out.check c
        (Printf.sprintf "fleet %s served every submitted event" label)
        (Serve.Serving.served f.serving = expected
        && Serve.Shard.Datapath.tenant_count f.dp = tenants))
    [ ("A", fa); ("B", fb); ("C", fc) ];
  let da = Serve.Serving.digest fa.serving in
  Out.check c "closed- and open-loop fleet digests equal"
    (da = Serve.Serving.digest fb.serving && da = Serve.Serving.digest fc.serving);
  Out.check c "no breaker opened" (counter (Obs.Registry.snapshot ()) "rmt.breaker.opens" = 0);
  Out.line "digest %016x" da;
  let sustained = sustained ld in
  if not sustained then
    Out.line "UNSUSTAINED: open-loop backlog grew through the passes (quarter means %s)"
      (String.concat " "
         (Array.to_list (Array.map (Printf.sprintf "%.1f") (quarter_backlog ld))));
  (* End-to-end metrics. *)
  let events = passes * len in
  let p90_us = float_of_int (Stats.fast_p90 ld.lat_ns ~segment:lat_segment) /. 1e3 in
  let sorted = ld.lat_ns in
  Array.sort compare sorted;
  let us level = float_of_int (Stats.percentile sorted level) /. 1e3 in
  let rates = Array.of_list !rates in
  let events_per_s = Stats.fast_rate rates in
  let q1, q3 = Stats.quartiles rates in
  let top = Stats.top_level events in
  Out.line "setup %s CPU-s (median of %d)"
    (String.concat " / "
       (Array.to_list (Array.map (fun ns -> Printf.sprintf "%.3f" (seconds_of ns)) setups)))
    (Array.length setups);
  Out.line
    "closed loop: %.0f events per CPU-second in the fastest tenth of %d segments (median %.0f, quartiles %.0f .. %.0f)"
    events_per_s (Array.length rates) (Stats.median rates) q1 q3;
  Out.line "open loop at %d events/s: %d samples, p50 %.2f us, p90 %.2f us, p99 %.2f us%s"
    (1_000_000_000 / period_ns) events (us 50_000) (us 90_000) (us 99_000)
    (match top with
     | Some l ->
       Printf.sprintf ", %s %.2f us (%d beyond)" (Stats.level_name l) (us l)
         (Stats.beyond ~n:events l)
     | None -> "");
  Out.line "open loop: p90 %.2f us in the calmest tenth of %d segments of %d events" p90_us
    (events / lat_segment) lat_segment;
  Out.line "open loop: late max %.1f us, backlog max %d, ring-full retries %d, %d drains"
    (float_of_int ld.late_max_ns /. 1e3) ld.backlog_max ld.backpressure ld.drains;
  let end_to_end =
    [ ("setup_s", Stats.median (Array.map seconds_of setups));
      ("events_per_s", events_per_s);
      ("top_heap_mb", Out.top_heap_mb ()) ]
  in
  (* Per-layer ledger (traced runs). *)
  let per_layer =
    if not trace then []
    else begin
      let tot = Spans.totals ~keep:(fun r -> r >= 1) tracer.spans ~names:n_names in
      let warm_sink = (Spans.totals ~keep:(fun r -> r < 0) tracer.spans ~names:n_names).Spans.total_ns.(s_sink) in
      let wall_ns = Spans.root_ns ~keep:(fun r -> r >= 1) tracer.spans in
      let per_ev ns = float_of_int ns /. float_of_int events in
      let slots = count_a "rmt.jit.batch_slots" and runs = count_a "rmt.jit.batch_runs" in
      let steps = count_a "rmt.jit.steps" + count_a "rmt.interp.steps" in
      let inv = count_b "rmt.serve.0.invocations" and bat = count_b "rmt.serve.0.batches" in
      let tail = match top with Some l -> l | None -> 50_000 in
      let first_touch_us = Out.ratio warm_sink tenants /. 1e3 in
      let overhead_pct = 100.0 *. ((float_of_int !cpu_c /. float_of_int !cpu_a) -. 1.0) in
      let rows =
        [ ("serve.submit_ns", tot.Spans.self_ns.(s_submit));
          ("serve.drain_self_ns", tot.Spans.self_ns.(s_drain));
          ("dp.sink_ns", tot.Spans.self_ns.(s_sink));
          ("ledger.unattributed_ns", tot.Spans.self_ns.(s_pass)) ]
      in
      Out.line "ledger: %d traced closed-loop events, %.3f s traced wall (%d spans, %d dropped)"
        events (seconds_of wall_ns) (Spans.length tracer.spans) (Spans.dropped tracer.spans);
      List.iter
        (fun (nm, ns) ->
          Out.line "  %-24s %9.1f ns/event  %5.1f%%" nm (per_ev ns) (100.0 *. Out.ratio ns wall_ns))
        rows;
      Out.line "dp.batch_occupancy %.3f = %d slots / %d batch runs" (Out.ratio slots runs) slots runs;
      Out.line "dp.first_touch_us %.1f = %.3f ms warm-up sink time / %d tenants (%d table inserts)"
        first_touch_us (float_of_int warm_sink /. 1e6) tenants warm_inserts;
      Out.line "rmt.steps_per_event %.1f = %d steps / %d events" (Out.ratio steps events) steps events;
      Out.line "serve.events_per_drain %.2f = %d events / %d drains (open loop)" (Out.ratio inv bat)
        inv bat;
      Out.line "gc: %.3f minor words/event, %d major collections over %d events (fleet A)"
        (!minor /. float_of_int events) !majors events;
      Out.line "trace overhead %.1f%%: traced closed loop %.3f CPU-s vs untraced %.3f CPU-s"
        overhead_pct (seconds_of !cpu_c) (seconds_of !cpu_a);
      List.map (fun (nm, ns) -> (nm, per_ev ns)) rows
      @ [ ("ledger.wall_s", seconds_of wall_ns);
          ("dp.batch_occupancy", Out.ratio slots runs);
          ("dp.first_touch_us", first_touch_us);
          ("rmt.table.inserts", float_of_int warm_inserts);
          ("serve.events_per_drain", Out.ratio inv bat);
          ("rmt.steps_per_event", Out.ratio steps events);
          ("gc.minor_words", !minor /. float_of_int events);
          ("gc.major_collections", float_of_int !majors);
          ("latency.p90_us", p90_us);
          ("load.samples", float_of_int events);
          ("load.p50_us", us 50_000);
          ("load.p99_us", us 99_000);
          ("load.p999_us", us 99_900);
          ("load.tail_pct", float_of_int tail /. 1000.0);
          ("load.tail_us", us tail);
          ("load.late_max_us", float_of_int ld.late_max_ns /. 1e3);
          ("load.backlog_max", float_of_int ld.backlog_max);
          ("load.backpressure", float_of_int ld.backpressure);
          ("trace.overhead_pct", overhead_pct);
          ("trace.spans_dropped", float_of_int (Spans.dropped tracer.spans)) ]
    end
  in
  (* Every fleet serves [events]; an unsustained open loop missed its
     schedule, so its events count as failed. *)
  let attempted = 3 * events in
  let failed = if not c.Out.ok then attempted else if sustained then 0 else events in
  { Out.correct = c.Out.ok; attempted; failed; end_to_end; per_layer }
