(* Summary statistics for the benchmark's samples.

   Percentile levels are integers in parts per 100,000 (p90 = 90_000,
   p99.9 = 99_900) so ranks are computed exactly: a float level such as
   0.999 times a sample count can land a hair above an integer and move
   the nearest rank by one. *)

let scale = 100_000

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [level / scale] of all samples at or below it. *)
let rank ~n level = max 1 (((level * n) + scale - 1) / scale)

let percentile sorted level =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if level <= 0 || level > scale then invalid_arg "Stats.percentile: level out of range";
  sorted.(rank ~n level - 1)

(* Samples strictly above the nearest-rank position of [level]. *)
let beyond ~n level = n - rank ~n level

(* The ladder the report walks: p50, p90, p99, p99.9, p99.99, p99.999. *)
let ladder = [ 50_000; 90_000; 99_000; 99_900; 99_990; 99_999 ]

(* The highest ladder level that still has at least [min_beyond] samples
   beyond it, so a tail figure never rests on a handful of samples. *)
let min_beyond = 10

let top_level n =
  List.fold_left
    (fun acc level -> if beyond ~n level >= min_beyond then Some level else acc)
    None ladder

let level_name level =
  let whole = level / 1000 and frac = level mod 1000 in
  if frac = 0 then Printf.sprintf "p%d" whole
  else
    let digits = Printf.sprintf "%03d" frac in
    let len = ref 3 in
    while !len > 0 && digits.[!len - 1] = '0' do decr len done;
    Printf.sprintf "p%d.%s" whole (String.sub digits 0 !len)

let sorted_copy_floats xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Segment summaries.  A run is cut into short segments of equal work.
   Contention from other tenants of a shared host only ever slows a
   segment down, so the fast end of the segments is what the code costs
   while it has the processor; a change to the code moves it as much as
   it moves the rest. *)

(* The rate at or above which the fastest tenth of the segments ran. *)
let fast_rate rates = percentile (sorted_copy_floats rates) 90_000

(* [lat] cut into consecutive segments of [segment] samples (a partial
   tail is left out): the p90 that the calmest tenth of the segments stays
   at or below. *)
let fast_p90 lat ~segment =
  let n = Array.length lat / segment in
  if n = 0 then invalid_arg "Stats.fast_p90: no whole segment";
  let buf = Array.make segment 0 in
  let p90s =
    Array.init n (fun k ->
        Array.blit lat (k * segment) buf 0 segment;
        Array.sort compare buf;
        percentile buf 90_000)
  in
  Array.sort compare p90s;
  percentile p90s 10_000

let median xs =
  let a = sorted_copy_floats xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0


(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] computes them (its default "exclusive"
   method), so the spreads printed here match the acceptance check. *)
let quartiles xs =
  let a = sorted_copy_floats xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (cut 1, cut 3)
