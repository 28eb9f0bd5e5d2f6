(* Tests for the extension layer: the multi-file workload and match
   granularity, and the cross-application producer/consumer monitor. *)

(* ---------------- file_streams workload ---------------- *)

let test_file_streams_structure () =
  let rng = Kml.Rng.create 1 in
  let trace = Ksim.Workload_mem.file_streams ~rng () in
  Alcotest.(check int) "total accesses" 9000 (Ksim.Workload_mem.length trace);
  (* every access belongs to one of the six inodes *)
  List.iter
    (fun { Ksim.Mem_sim.pid; _ } ->
      Alcotest.(check bool) "inode in range" true (pid >= 1 && pid <= 6))
    trace;
  (* per-inode subsequences follow their declared pattern *)
  let per_inode inode =
    List.filter_map
      (fun { Ksim.Mem_sim.pid; page } -> if pid = inode then Some page else None)
      trace
  in
  let seq = per_inode 1 in
  let rec is_seq = function
    | a :: (b :: _ as rest) -> b = a + 1 && is_seq rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "file 1 sequential" true (is_seq seq);
  let rec is_strided = function
    | a :: (b :: _ as rest) -> b = a + 7 && is_strided rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "file 2 strided by 7" true (is_strided (per_inode 2));
  let rec is_reversed = function
    | a :: (b :: _ as rest) -> b = a - 1 && is_reversed rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "file 3 reversed" true (is_reversed (per_inode 3));
  (* the kinds cycle over the files *)
  Alcotest.(check bool) "file 4 sequential" true (is_seq (per_inode 4));
  Alcotest.(check bool) "file 5 strided by 7" true (is_strided (per_inode 5));
  Alcotest.(check bool) "file 6 reversed" true (is_reversed (per_inode 6))

let test_retag () =
  let rng = Kml.Rng.create 2 in
  let trace = Ksim.Workload_mem.file_streams ~rng () in
  let retagged = Ksim.Workload_mem.retag trace ~pid:9 in
  Alcotest.(check int) "same length" (List.length trace) (List.length retagged);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "pid replaced" 9 b.Ksim.Mem_sim.pid;
      Alcotest.(check int) "page kept" a.Ksim.Mem_sim.page b.Ksim.Mem_sim.page)
    trace retagged

let test_granularity_helps () =
  (* Ablation I's comparison on another seed: per-inode matching must beat
     the collapsed per-process stream for the learned prefetcher. *)
  let rng = Kml.Rng.create 3 in
  let per_inode = Ksim.Workload_mem.file_streams ~rng () in
  let per_process = Ksim.Workload_mem.retag per_inode ~pid:1 in
  let config = Rkd.Experiment.mem_config in
  let run trace =
    let ours = Rkd.Prefetch_rmt.create () in
    (Ksim.Mem_sim.run ~config ~prefetcher:(Rkd.Prefetch_rmt.prefetcher ours) trace)
      .Ksim.Mem_sim.coverage
  in
  let fine = run per_inode and coarse = run per_process in
  Alcotest.(check bool)
    (Printf.sprintf "per-inode coverage %.2f > per-process %.2f" fine coarse)
    true (fine > coarse)

(* ---------------- producer/consumer workload ---------------- *)

let test_producer_consumer_structure () =
  let rng = Kml.Rng.create 4 in
  let lag = 4 and delta = 1 lsl 20 in
  let trace = Ksim.Workload_mem.producer_consumer ~rng ~producer:7 ~consumer:8 () in
  let pages_of p =
    Array.of_list
      (List.filter_map
         (fun { Ksim.Mem_sim.pid; page } -> if pid = p then Some page else None)
         trace)
  in
  let producer_pages = pages_of 7 and consumer_pages = pages_of 8 in
  Alcotest.(check int) "producer count" 4000 (Array.length producer_pages);
  Alcotest.(check int) "consumer lags" (4000 - lag) (Array.length consumer_pages);
  (* consumer page i = producer page i + delta *)
  Array.iteri
    (fun i q -> Alcotest.(check int) "mapping holds" (producer_pages.(i) + delta) q)
    consumer_pages

(* ---------------- Cross_app ---------------- *)

let test_cross_app_detects_coupling () =
  let rng = Kml.Rng.create 5 in
  let trace = Ksim.Workload_mem.producer_consumer ~rng ~producer:1 ~consumer:2 () in
  let xa = Rkd.Cross_app.create () in
  let prefetcher = Rkd.Cross_app.prefetcher xa in
  List.iter
    (fun { Ksim.Mem_sim.pid; page } ->
      ignore (prefetcher.Ksim.Prefetcher.on_access ~pid ~page ~hit:false ~now:0))
    trace;
  match Rkd.Cross_app.couplings xa with
  | [ c ] ->
    Alcotest.(check int) "producer" 1 c.Rkd.Cross_app.producer;
    Alcotest.(check int) "consumer" 2 c.Rkd.Cross_app.consumer;
    Alcotest.(check int) "delta" (1 lsl 20) c.Rkd.Cross_app.delta
  | other -> Alcotest.failf "expected one coupling, got %d" (List.length other)

let test_cross_app_no_false_coupling () =
  (* Two independent random walks must not couple. *)
  let rng = Kml.Rng.create 6 in
  let xa = Rkd.Cross_app.create () in
  let prefetcher = Rkd.Cross_app.prefetcher xa in
  for _ = 1 to 2000 do
    ignore
      (prefetcher.Ksim.Prefetcher.on_access ~pid:1 ~page:(Kml.Rng.int rng 1_000_000)
         ~hit:false ~now:0);
    ignore
      (prefetcher.Ksim.Prefetcher.on_access ~pid:2
         ~page:(2_000_000 + Kml.Rng.int rng 1_000_000) ~hit:false ~now:0)
  done;
  Alcotest.(check int) "no couplings" 0 (List.length (Rkd.Cross_app.couplings xa))

let test_cross_app_decouples_on_change () =
  let rng = Kml.Rng.create 7 in
  let xa = Rkd.Cross_app.create () in
  let prefetcher = Rkd.Cross_app.prefetcher xa in
  let coupled = Ksim.Workload_mem.producer_consumer ~rng ~producer:1 ~consumer:2 () in
  List.iter
    (fun { Ksim.Mem_sim.pid; page } ->
      ignore (prefetcher.Ksim.Prefetcher.on_access ~pid ~page ~hit:false ~now:0))
    coupled;
  Alcotest.(check bool) "coupled first" true (Rkd.Cross_app.couplings xa <> []);
  (* now the streams diverge: independent walks *)
  for _ = 1 to 2000 do
    ignore
      (prefetcher.Ksim.Prefetcher.on_access ~pid:1 ~page:(Kml.Rng.int rng 1_000_000)
         ~hit:false ~now:0);
    ignore
      (prefetcher.Ksim.Prefetcher.on_access ~pid:2
         ~page:(5_000_000 + Kml.Rng.int rng 1_000_000) ~hit:false ~now:0)
  done;
  Alcotest.(check int) "decoupled after divergence" 0
    (List.length (Rkd.Cross_app.couplings xa))

let test_cross_app_beats_per_stream () =
  let rows = Rkd.Experiment.ablation_cross_app () in
  let find name =
    List.find (fun (r : Rkd.Experiment.cross_row) -> r.x_system = name) rows
  in
  let xa = find "cross-app" and linux = find "linux" and ours = find "rmt-ml" in
  Alcotest.(check bool) "cross-app covers ~half" true (xa.Rkd.Experiment.x_coverage_pct > 40.0);
  Alcotest.(check bool) "per-stream blind (linux)" true
    (linux.Rkd.Experiment.x_coverage_pct < 5.0);
  Alcotest.(check bool) "per-stream blind (rmt-ml)" true
    (ours.Rkd.Experiment.x_coverage_pct < 5.0);
  Alcotest.(check bool) "cross-app fastest" true
    (xa.Rkd.Experiment.x_completion_s < linux.Rkd.Experiment.x_completion_s);
  Alcotest.(check (list string))
    "seed-42 cross-app rows"
    [ "linux 0.00 / 0.00 / 0.719 s"; "leap 0.00 / 0.00 / 0.719 s";
      "rmt-ml 0.00 / 0.00 / 0.732 s"; "cross-app 99.90 / 49.52 / 0.521 s" ]
    (List.map
       (fun (r : Rkd.Experiment.cross_row) ->
         Printf.sprintf "%s %.2f / %.2f / %.3f s" r.x_system r.x_accuracy_pct r.x_coverage_pct
           r.x_completion_s)
       rows)

let suite =
  [ ( "file_streams",
      [ Alcotest.test_case "structure" `Quick test_file_streams_structure;
        Alcotest.test_case "retag" `Quick test_retag;
        Alcotest.test_case "granularity helps" `Slow test_granularity_helps ] );
    ( "producer_consumer",
      [ Alcotest.test_case "structure" `Quick test_producer_consumer_structure ] );
    ( "cross_app",
      [ Alcotest.test_case "detects coupling" `Quick test_cross_app_detects_coupling;
        Alcotest.test_case "no false coupling" `Quick test_cross_app_no_false_coupling;
        Alcotest.test_case "decouples on change" `Quick test_cross_app_decouples_on_change;
        Alcotest.test_case "beats per-stream" `Slow test_cross_app_beats_per_stream ] ) ]

(* ---------------- Online training loop (ablation K) ---------------- *)

let test_online_training_converges () =
  let rows = Rkd.Experiment.ablation_online_training () in
  Alcotest.(check bool) "several windows" true (List.length rows > 8);
  let last = List.nth rows (List.length rows - 1) in
  Alcotest.(check bool) "models were pushed" true (last.Rkd.Experiment.pushes_so_far >= 3);
  (* The tail of the learning curve must sit at high agreement. *)
  let tail =
    List.filteri (fun i _ -> i >= List.length rows - 5) rows
    |> List.map (fun (r : Rkd.Experiment.online_row) -> r.window_agreement_pct)
  in
  let mean = List.fold_left ( +. ) 0.0 tail /. float_of_int (List.length tail) in
  Alcotest.(check bool) (Printf.sprintf "tail agreement %.1f >= 95" mean) true (mean >= 95.0);
  Alcotest.(check (list string))
    "seed-42 online-training rows"
    [ "0 300 100.00 0"; "1 600 100.00 1"; "2 900 80.67 1"; "3 1200 63.33 2";
      "4 1500 100.00 2"; "5 1800 99.33 3"; "6 2100 100.00 3"; "7 2400 100.00 4";
      "8 2700 100.00 4"; "9 3000 100.00 5"; "10 3300 100.00 5"; "11 3600 100.00 6";
      "12 3900 100.00 6"; "13 4200 100.00 7"; "14 4500 100.00 7"; "15 4800 100.00 8";
      "16 5100 100.00 8"; "17 5400 100.00 9"; "18 5700 100.00 9"; "19 6000 100.00 10";
      "20 6300 100.00 10"; "21 6600 100.00 11"; "22 6900 100.00 11"; "23 7200 96.67 12" ]
    (List.map
       (fun (r : Rkd.Experiment.online_row) ->
         Printf.sprintf "%d %d %.2f %d" r.window_idx r.decisions_so_far r.window_agreement_pct
           r.pushes_so_far)
       rows)

let suite =
  suite
  @ [ ( "online_training",
        [ Alcotest.test_case "converges" `Slow test_online_training_converges ] ) ]
