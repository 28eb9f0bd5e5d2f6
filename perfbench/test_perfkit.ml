(* Checks for the benchmark's measurement primitives: the statistics
   helpers on hand-computed arrays, and that the clock and the span and
   latency buffers record without allocating. *)

open Perfkit

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* Nearest rank over 1..10: p50 is the 5th value, p90 the 9th, p99 and
     p99.9 the 10th. *)
  let ten = Array.init 10 (fun i -> i + 1) in
  expect "p50 of 1..10 is 5" (Stats.percentile ten 50_000 = 5);
  expect "p90 of 1..10 is 9" (Stats.percentile ten 90_000 = 9);
  expect "p99 of 1..10 is 10" (Stats.percentile ten 99_000 = 10);
  expect "p99.9 of 1..10 is 10" (Stats.percentile ten 99_900 = 10);
  (* 1000 samples: p99.9 has rank 999, so one sample beyond it. *)
  let thousand = Array.init 1000 (fun i -> i) in
  expect "p99 of 0..999 is 989" (Stats.percentile thousand 99_000 = 989);
  expect "p99.9 of 0..999 is 998" (Stats.percentile thousand 99_900 = 998);
  expect "beyond p99 of 1000 is 10" (Stats.beyond ~n:1000 99_000 = 10);
  (* Highest ladder level with at least 10 samples beyond it. *)
  expect "top level of 1000 is p99" (Stats.top_level 1000 = Some 99_000);
  expect "top level of 999 is p90" (Stats.top_level 999 = Some 90_000);
  expect "top level of 20 is p50" (Stats.top_level 20 = Some 50_000);
  expect "top level of 19 is none" (Stats.top_level 19 = None);
  expect "top level of 1_000_000 is p99.999" (Stats.top_level 1_000_000 = Some 99_999);
  expect "level names" (Stats.level_name 99_900 = "p99.9" && Stats.level_name 90_000 = "p90"
                        && Stats.level_name 99_999 = "p99.999");
  (* Median and quartiles, as Python's statistics.median and
     statistics.quantiles(n=4) give them. *)
  expect "median odd" (close (Stats.median [| 3.; 1.; 2. |]) 2.0);
  expect "median even" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  let q1, q3 = Stats.quartiles [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  expect "quartiles of 1..10 are 2.75 and 8.25" (close q1 2.75 && close q3 8.25);
  let q1, q3 = Stats.quartiles [| 5.; 1.; 3. |] in
  expect "quartiles of 1,3,5 are 1 and 5" (close q1 1.0 && close q3 5.0);
  let q1, q3 = Stats.quartiles [| 2.; 1. |] in
  expect "quartiles of 1,2 are 0.75 and 2.25" (close q1 0.75 && close q3 2.25);
  (* Segment summaries: the nearest-rank p90 of the rates, and the p10 of
     the segments' p90s. *)
  expect "fast rate of 1..10 is 9" (close (Stats.fast_rate (Array.init 10 (fun i -> float_of_int (10 - i)))) 9.0);
  expect "fast rate of one segment is its rate" (close (Stats.fast_rate [| 4.5 |]) 4.5);
  let lat = Array.init 25 (fun i -> 20 - i) in
  (* Segments 20..11 and 10..1 (p90s 19 and 9); the partial tail is left out. *)
  expect "fast p90 of two segments is the lower p90" (Stats.fast_p90 lat ~segment:10 = 9);
  expect "fast p90 of ten segments is the lowest" (Stats.fast_p90 (Array.init 100 (fun i -> 100 - i)) ~segment:10 = 9);
  (* Self times: a root of 100 ns with children of 30 and 20 ns, one of
     which has a 5 ns child. *)
  let sp = Spans.create 8 in
  let root = Spans.enter sp ~name:0 ~parent:(-1) ~run:1 0 in
  let a = Spans.enter sp ~name:1 ~parent:root ~run:1 10 in
  let b = Spans.enter sp ~name:2 ~parent:a ~run:1 12 in
  Spans.leave sp b 17;
  Spans.leave sp a 40;
  let c = Spans.enter sp ~name:1 ~parent:root ~run:1 50 in
  Spans.leave sp c 70;
  Spans.leave sp root 100;
  let t = Spans.totals sp ~names:3 in
  expect "self times" (t.Spans.self_ns = [| 50; 45; 5 |] && t.Spans.count = [| 1; 2; 1 |]);
  expect "self times add up to the root" (Array.fold_left ( + ) 0 t.Spans.self_ns = Spans.root_ns sp);
  let full = Spans.create 1 in
  ignore (Spans.enter full ~name:0 ~parent:(-1) ~run:0 0 : int);
  expect "full buffer drops" (Spans.enter full ~name:0 ~parent:(-1) ~run:0 0 = -1 && Spans.dropped full = 1);
  (* Measurement allocates nothing per event. *)
  let sp = Spans.create 10_000 and lat = Array.make 10_000 0 in
  let clock_sum = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    let t0 = Clock.now_ns () in
    let id = Spans.enter sp ~name:1 ~parent:(-1) ~run:0 t0 in
    let t1 = Clock.now_ns () in
    Spans.leave sp id t1;
    Array.unsafe_set lat i (t1 - t0);
    clock_sum := !clock_sum + (t1 - t0)
  done;
  let words = Gc.minor_words () -. w0 in
  expect (Printf.sprintf "clock, span and latency records allocate nothing (%.0f words)" words)
    (words = 0.0);
  expect "clock is monotonic" (!clock_sum >= 0 && Array.for_all (fun d -> d >= 0) lat);
  if !failures > 0 then exit 1
