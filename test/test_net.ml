(* Tests for the network datapath (DESIGN.md section 16): integer cube
   root, the Cubic and BBR baseline controllers, same-timestamp event
   ordering in the DES core, simulator determinism, and the learned
   net.cc decision point's failsafe + pool-width contracts. *)

let ms n = n * 1_000_000

(* A synthetic ACK-time signal; defaults model a 10 ms path. *)
let mk ?(rtt = ms 10) ?(min_rtt = ms 10) ?(srtt = ms 10) ?(ecn = false) ?(loss = false)
    ?(cwnd = 4) ?(delivered = 0) ?(rate = 0) now =
  { Ksim.Cc.now;
    rtt_ns = rtt;
    min_rtt_ns = min_rtt;
    srtt_ns = srtt;
    ecn;
    loss;
    inflight = cwnd;
    cwnd;
    delivered;
    delivery_rate = rate }

(* ---------------- icbrt ---------------- *)

let test_icbrt () =
  for n = 0 to 5_000 do
    let r = Ksim.Cc.icbrt n in
    Alcotest.(check bool)
      (Printf.sprintf "icbrt %d = %d" n r)
      true
      (r * r * r <= n && (r + 1) * (r + 1) * (r + 1) > n)
  done;
  for r = 1 to 200 do
    let c = r * r * r in
    Alcotest.(check int) "exact cube" r (Ksim.Cc.icbrt c);
    Alcotest.(check int) "cube - 1" (r - 1) (Ksim.Cc.icbrt (c - 1));
    Alcotest.(check int) "cube + 1" r (Ksim.Cc.icbrt (c + 1))
  done;
  Alcotest.(check int) "negative" 0 (Ksim.Cc.icbrt (-5));
  let big = 4_611_686_018_427_387_903 in
  let r = Ksim.Cc.icbrt big in
  Alcotest.(check bool) "62-bit input" true (r > 0 && r <= big / (r * r))

(* ---------------- Cubic ---------------- *)

let test_cubic_slow_start_and_backoff () =
  let st = Ksim.Cc.Cubic.create () in
  (* Slow start: +1 per ack until the first congestion signal. *)
  for i = 1 to 96 do
    ignore (Ksim.Cc.Cubic.on_signal st (mk ~cwnd:(Ksim.Cc.Cubic.cwnd st) (ms i)))
  done;
  Alcotest.(check int) "slow-start growth" 100 (Ksim.Cc.Cubic.cwnd st);
  Alcotest.(check bool) "still in slow start" true (Ksim.Cc.Cubic.in_slow_start st);
  (* Loss: beta = 0.7 multiplicative decrease, w_max records the peak. *)
  let d = Ksim.Cc.Cubic.on_signal st (mk ~loss:true (ms 200)) in
  Alcotest.(check int) "beta backoff" 70 d.Ksim.Cc.cwnd;
  Alcotest.(check int) "w_max recorded" 100 (Ksim.Cc.Cubic.w_max st);
  Alcotest.(check bool) "left slow start" false (Ksim.Cc.Cubic.in_slow_start st);
  (* A loss burst within one smoothed RTT reduces only once. *)
  let d2 = Ksim.Cc.Cubic.on_signal st (mk ~loss:true (ms 201)) in
  Alcotest.(check int) "per-RTT reduction guard" 70 d2.Ksim.Cc.cwnd;
  (* Concave-then-convex regrowth: K = cbrt(30/0.4) ~ 4.2 s, so two
     seconds in the window is still below the old peak, and nine seconds
     in it must have overshot it. *)
  for i = 1 to 2_000 do
    ignore (Ksim.Cc.Cubic.on_signal st (mk (ms (210 + i))))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "concave region below w_max (cwnd %d)" (Ksim.Cc.Cubic.cwnd st))
    true
    (Ksim.Cc.Cubic.cwnd st < 100);
  for i = 2_001 to 9_000 do
    ignore (Ksim.Cc.Cubic.on_signal st (mk (ms (210 + i))))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "convex region above w_max (cwnd %d)" (Ksim.Cc.Cubic.cwnd st))
    true
    (Ksim.Cc.Cubic.cwnd st > 100)

let test_cubic_ecn_gentler () =
  let st = Ksim.Cc.Cubic.create () in
  for i = 1 to 96 do
    ignore (Ksim.Cc.Cubic.on_signal st (mk (ms i)))
  done;
  let d = Ksim.Cc.Cubic.on_signal st (mk ~ecn:true (ms 200)) in
  Alcotest.(check int) "ECN backoff is gentler than loss" 85 d.Ksim.Cc.cwnd

(* ---------------- BBR ---------------- *)

let test_bbr_startup_exit_and_gain_cycle () =
  let st = Ksim.Cc.Bbr.create () in
  Alcotest.(check bool) "starts in startup" true (Ksim.Cc.Bbr.in_startup st);
  (* Ramp the delivery rate, then hold it flat: three flat rounds end
     startup, one min-RTT of drain enters the probe-bw cycle. *)
  let now = ref 0 in
  let step rate =
    now := !now + ms 10;
    Ksim.Cc.Bbr.on_signal st (mk ~rate !now)
  in
  List.iter (fun r -> ignore (step r)) [ 1_000; 2_000; 4_000; 8_000 ];
  Alcotest.(check bool) "growing estimate keeps startup" true (Ksim.Cc.Bbr.in_startup st);
  List.iter (fun r -> ignore (step r)) [ 8_000; 8_000; 8_000 ];
  Alcotest.(check bool) "plateau exits startup" false (Ksim.Cc.Bbr.in_startup st);
  Alcotest.(check int) "bottleneck estimate" 8_000 (Ksim.Cc.Bbr.btl_bw st);
  (* Drain lasts one min-RTT, then the 8-phase gain cycle advances one
     phase per min-RTT, wrapping around. *)
  ignore (step 8_000);
  Alcotest.(check int) "probe-bw entered at phase 0" 0 (Ksim.Cc.Bbr.phase st);
  let pacing_at_phase = Array.make (Array.length Ksim.Cc.Bbr.gain_cycle) 0 in
  let phases = ref [] in
  for _ = 1 to 16 do
    let d = step 8_000 in
    let p = Ksim.Cc.Bbr.phase st in
    if pacing_at_phase.(p) = 0 then pacing_at_phase.(p) <- d.Ksim.Cc.pacing_ns;
    phases := p :: !phases
  done;
  Alcotest.(check (list int)) "gain cycle wraps in order"
    [ 1; 2; 3; 4; 5; 6; 7; 0; 1; 2; 3; 4; 5; 6; 7; 0 ]
    (List.rev !phases);
  Alcotest.(check bool) "probe gain paces faster than drain gain" true
    (pacing_at_phase.(0) < pacing_at_phase.(1));
  (* cwnd = 2 * BDP = 2 * 8000 pkt/s * 10 ms. *)
  Alcotest.(check int) "cwnd caps at twice the pipe" 160
    (step 8_000).Ksim.Cc.cwnd

(* ---------------- Event queue tie-breaking ---------------- *)

(* Regression: same-timestamp events must pop in insertion order even
   under heavy push/pop interleaving (heap reshuffles on every pop). *)
let test_event_queue_fifo_ties () =
  let q = Ksim.Event_queue.create () in
  for i = 0 to 99 do
    Ksim.Event_queue.push q ~time:7 i
  done;
  let popped = ref [] in
  for _ = 1 to 50 do
    match Ksim.Event_queue.pop q with
    | Some (7, v) -> popped := v :: !popped
    | _ -> Alcotest.fail "expected a time-7 event"
  done;
  for i = 100 to 149 do
    Ksim.Event_queue.push q ~time:7 i
  done;
  while not (Ksim.Event_queue.is_empty q) do
    match Ksim.Event_queue.pop q with
    | Some (7, v) -> popped := v :: !popped
    | _ -> Alcotest.fail "expected a time-7 event"
  done;
  Alcotest.(check (list int)) "FIFO among equal timestamps" (List.init 150 Fun.id)
    (List.rev !popped);
  (* Mixed timestamps: earlier times first, FIFO within each time. *)
  let q = Ksim.Event_queue.create () in
  let seq = [ (3, 0); (1, 1); (3, 2); (2, 3); (1, 4); (2, 5); (3, 6); (1, 7) ] in
  List.iter (fun (time, v) -> Ksim.Event_queue.push q ~time v) seq;
  ignore (Ksim.Event_queue.pop q);
  (* interleaved push after a pop *)
  Ksim.Event_queue.push q ~time:1 8;
  Ksim.Event_queue.push q ~time:3 9;
  let rest = ref [] in
  while not (Ksim.Event_queue.is_empty q) do
    match Ksim.Event_queue.pop q with
    | Some (t, v) -> rest := (t, v) :: !rest
    | None -> ()
  done;
  Alcotest.(check (list (pair int int))) "time order then insertion order"
    [ (1, 4); (1, 7); (1, 8); (2, 3); (2, 5); (3, 0); (3, 2); (3, 6); (3, 9) ]
    (List.rev !rest)

(* ---------------- Simulator ---------------- *)

let test_net_sim_single_flow () =
  let spec = { Ksim.Flow.id = 1; start_ns = 0; size_pkts = 200; base_rtt_ns = ms 10 } in
  let run () =
    Ksim.Net_sim.run
      ~link:{ Ksim.Link.queue_capacity = 128; ecn_threshold = 0 }
      ~make_cc:(fun _ -> Ksim.Cc.cubic ())
      [| spec |]
  in
  let r = run () in
  Alcotest.(check int) "all packets delivered" 200 r.Ksim.Net_sim.delivered_pkts;
  Alcotest.(check int) "no censored flows" 0 r.Ksim.Net_sim.incomplete;
  Alcotest.(check bool) "positive goodput" true (r.Ksim.Net_sim.goodput_mbps > 0.0);
  Alcotest.(check bool) "fct recorded" true r.Ksim.Net_sim.flows.(0).Ksim.Net_sim.f_completed;
  let r2 = run () in
  Alcotest.(check int) "repeat run digest" r.Ksim.Net_sim.digest r2.Ksim.Net_sim.digest;
  Alcotest.(check (float 1e-9)) "repeat run goodput" r.Ksim.Net_sim.goodput_mbps
    r2.Ksim.Net_sim.goodput_mbps

let test_net_sim_fairness () =
  let s = Ksim.Workload_net.stream () in
  let r =
    Ksim.Net_sim.run ~link:s.Ksim.Workload_net.link
      ~make_cc:(fun _ -> Ksim.Cc.cubic ())
      s.Ksim.Workload_net.flows
  in
  Alcotest.(check int) "all flows finish" 0 r.Ksim.Net_sim.incomplete;
  Alcotest.(check bool)
    (Printf.sprintf "identical long flows share fairly (jain %.3f)" r.Ksim.Net_sim.fairness)
    true
    (r.Ksim.Net_sim.fairness >= 0.9)

(* ---------------- Learned net.cc failsafe ---------------- *)

(* With the engine trapping on every invocation the breaker must serve
   the genuine stock-Cubic trajectory, then re-close once faults stop. *)
let test_net_rmt_fallback_matches_stock () =
  let net = Rkd.Net_rmt.create ~seed:7 () in
  let mirror = Ksim.Cc.Cubic.create () in
  Rmt.Fault.with_plan ~seed:0xbad [ (Rmt.Fault.Engine_trap, 1.0) ] (fun () ->
      for e = 1 to 64 do
        let loss = e mod 17 = 0 in
        let s = mk ~loss ~cwnd:(Ksim.Cc.Cubic.cwnd mirror) (ms e) in
        let d = Rkd.Net_rmt.decide net ~flow:1 s in
        let expected = Ksim.Cc.Cubic.on_signal mirror s in
        Alcotest.(check int)
          (Printf.sprintf "event %d serves the stock cwnd" e)
          expected.Ksim.Cc.cwnd d.Ksim.Cc.cwnd
      done);
  let st = Rkd.Net_rmt.stats net in
  Alcotest.(check bool) "breaker tripped" true (st.Rkd.Net_rmt.breaker_trips > 0);
  Alcotest.(check bool) "fallbacks served" true (st.Rkd.Net_rmt.fallback_decisions > 0);
  Alcotest.(check int) "no learned decisions got through" 0
    (st.Rkd.Net_rmt.decisions - st.Rkd.Net_rmt.stock_decisions);
  (* Fault-free recovery: advance the clock well past the backoff. *)
  let e = ref 64 in
  while
    Rmt.Breaker.state (Rkd.Net_rmt.breaker net) <> Rmt.Breaker.Closed && !e < 64 + 4096
  do
    incr e;
    ignore (Rkd.Net_rmt.decide net ~flow:1 (mk (ms (!e * 2))))
  done;
  Alcotest.(check bool) "breaker re-closed" true
    (Rmt.Breaker.state (Rkd.Net_rmt.breaker net) = Rmt.Breaker.Closed)

(* ---------------- Table 3 determinism + shape ---------------- *)

let test_table3_width_determinism () =
  let digests =
    Par.replay ~widths:[ 1; 4; 8 ] (fun () ->
        Rkd.Experiment.table3_digest
          (Rkd.Experiment.table3 ~faults:[] ()))
  in
  match digests with
  | [ (_, d1); (_, d4); (_, d8) ] ->
    Alcotest.(check int) "width 1 = width 4" d1 d4;
    Alcotest.(check int) "width 1 = width 8" d1 d8
  | _ -> assert false

let test_table3_faulted_determinism () =
  let plan =
    match Rmt.Fault.parse_spec "all:0.01" with Ok p -> p | Error e -> Alcotest.fail e
  in
  let runs =
    Par.replay ~widths:[ 1; 4 ] (fun () ->
        let rows = Rkd.Experiment.table3 ~faults:plan () in
        (Rkd.Experiment.table3_digest rows,
         List.fold_left (fun a r -> a + r.Rkd.Experiment.net_fallbacks) 0 rows))
  in
  match runs with
  | [ (_, (d1, f1)); (_, (d4, f4)) ] ->
    Alcotest.(check int) "faulted digests identical across widths" d1 d4;
    Alcotest.(check int) "same fallback count" f1 f4;
    Alcotest.(check bool) "faults actually forced fallbacks" true (f1 > 0)
  | _ -> assert false

let test_table3_learned_beats_worse_baseline () =
  let rows = Rkd.Experiment.table3 ~faults:[] () in
  Alcotest.(check int) "rows = mixes x systems"
    (List.length Ksim.Workload_net.names * List.length Rkd.Experiment.net_systems)
    (List.length rows);
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    (Rkd.Report.net_checks rows);
  (* Pins the learned policy's trained trees: `rkdctl net` prints this
     digest for seed 42 with no fault plan. *)
  Alcotest.(check string) "seed-42 digest" "1ef0796bd483aa04"
    (Printf.sprintf "%016x" (Rkd.Experiment.table3_digest rows))

let suite =
  [ ( "net",
      [ Alcotest.test_case "icbrt" `Quick test_icbrt;
        Alcotest.test_case "cubic slow start, backoff, regrowth" `Quick
          test_cubic_slow_start_and_backoff;
        Alcotest.test_case "cubic ECN gentler than loss" `Quick test_cubic_ecn_gentler;
        Alcotest.test_case "bbr startup exit and gain cycle" `Quick
          test_bbr_startup_exit_and_gain_cycle;
        Alcotest.test_case "event queue FIFO ties under interleaving" `Quick
          test_event_queue_fifo_ties;
        Alcotest.test_case "single-flow sim, repeatable" `Quick test_net_sim_single_flow;
        Alcotest.test_case "stream fairness" `Quick test_net_sim_fairness;
        Alcotest.test_case "breaker fallback = stock cubic" `Quick
          test_net_rmt_fallback_matches_stock;
        Alcotest.test_case "table3 width determinism" `Quick test_table3_width_determinism;
        Alcotest.test_case "table3 faulted determinism" `Quick
          test_table3_faulted_determinism;
        Alcotest.test_case "table3 learned beats worse baseline" `Slow
          test_table3_learned_beats_worse_baseline ] ) ]
