type params = { history : int; window_capacity : int; retrain_period : int }

let default_params = { history = 8; window_capacity = 6144; retrain_period = 512 }

(* Delta classes, class 0 = "no prefetch". *)
let n_delta_classes = 32

(* Prefetch roll-forward depth: predictions per access. *)
let depth = 8
let tree_params = { Kml.Decision_tree.max_depth = 12; min_samples_split = 2 }

(* Prefetch-issue rate limit (token bucket). *)
let pages_per_sec_limit = 400_000

(* Leaves whose majority class holds less than this percentage of their
   samples are demoted to "no prefetch" (conservative prefetching, §3.1). *)
let min_leaf_purity_pct = 70

(* The per-access host state lives in int arrays allocated at a pid's
   first access, so the hook's host side allocates nothing but the list it
   returns.

   A training sample is multi-horizon: the feature block observed at time t
   (delta history + page-offset features + horizon) labelled with the
   cumulative page delta j accesses later.  Cumulative deltas stay constant
   across periodic patterns even when individual steps drift, which is what
   lets the tree prefetch "through" unpredictable interleaved accesses. *)

type pid_state = {
  ctxt : Rmt.Ctxt.t;
  mutable predicted_next_page : int;
  mutable has_prediction : bool; (* [predicted_next_page] awaits scoring *)
  mutable seen_first : bool;
  (* Feature snapshots awaiting future labels: a [depth] x [n_features]
     ring of rows, each with the page it was taken at.  The newest row is
     the one before [pending_head]. *)
  pending : int array;
  pending_page : int array;
  mutable pending_head : int;
  mutable pending_len : int;
}

type t = {
  params : params;
  control : Rmt.Control.t;
  collect_table : Rmt.Table.t;
  predict_table : Rmt.Table.t;
  collect_vm : Rmt.Vm.t;
  predict_vm : Rmt.Vm.t;
  breaker : Rmt.Breaker.t; (* shared by both hooks: they degrade together *)
  stock : Ksim.Prefetcher.t; (* kernel readahead, served while the breaker is open *)
  mutable fallback_accesses : int;
  pids : (int, pid_state) Hashtbl.t;
  (* The training window: a [window_capacity] x [n_features] ring of
     feature rows (horizon in the last column), their cumulative deltas,
     the delta classes of the last retrain and the tree workspace that
     trains on the rows in place.  All four are allocated with the first
     pid's state, so [create] stays cheap and a prefetcher that never sees
     an access holds no window. *)
  mutable window : int array;
  mutable window_delta : int array;
  mutable window_label : int array;
  mutable workspace : Kml.Decision_tree.workspace;
  mutable window_head : int;
  mutable window_len : int;
  predictions : int array; (* [depth] deduplicated prefetch targets *)
  mutable class_deltas : int array;
  mutable model_ready : bool;
  mutable tree : Kml.Decision_tree.t option;
  mutable now_ns : int;
  limiter : Rmt.Rate_limit.t;
  mutable accesses : int;
  mutable retrains : int;
  mutable training_samples : int;
  mutable since_retrain : int;
  mutable predictions_checked : int;
  mutable predictions_correct : int;
  mutable recent_checked : int;
  mutable recent_correct : int;
  mutable current_depth : int;
  mutable online : bool; (* background retraining enabled *)
}

(* Feature layout: [0..K-1] recent deltas (newest first), [K] page mod 64,
   [K+1] (page / 64) mod 64, [K+2] prediction horizon (1..depth). *)
let n_features params = params.history + 3

let result_key_base = 64

(* Circuit-breaker fallback markers (DESIGN.md section 12).  The collect
   program returns a delta clamped to +-4096 and the predict program is
   Guarded to [0, n_delta_classes), so these values are unambiguous. *)
let collect_fallback_marker = min_int
let predict_fallback_marker = -1

(* Data-collection action (installed at lookup_swap_cache): compute the
   access delta, shift the per-process history window held in RMT_CTXT, and
   refresh the derived page-offset features. *)
let build_collect_program params =
  let open Rmt in
  let k = params.history in
  let f = Hooks.key_feature_base in
  let b = Builder.create ~name:"pf_collect" ~vmem_size:4 () in
  Builder.emit b (Insn.Ld_ctxt_k (1, Hooks.key_page));
  Builder.emit b (Insn.Ld_ctxt_k (2, Hooks.key_last_page));
  Builder.emit b (Insn.Mov (3, 1));
  Builder.emit b (Insn.Alu (Insn.Sub, 3, 2));
  (* Clamp the delta feature: far jumps (into output buffers, checkpoint
     regions, noise) carry drifting magnitudes that would destabilize the
     tree's thresholds; beyond +-4096 only the direction is informative. *)
  Builder.emit b (Insn.Alu_imm (Insn.Min, 3, 4096));
  Builder.emit b (Insn.Alu_imm (Insn.Max, 3, -4096));
  for i = k - 1 downto 1 do
    Builder.emit b (Insn.Ld_ctxt_k (4, f + i - 1));
    Builder.emit b (Insn.St_ctxt (f + i, 4))
  done;
  Builder.emit b (Insn.St_ctxt (f, 3));
  Builder.emit b (Insn.Mov (4, 1));
  Builder.emit b (Insn.Alu_imm (Insn.Mod, 4, 64));
  Builder.emit b (Insn.St_ctxt (f + k, 4));
  Builder.emit b (Insn.Mov (5, 1));
  Builder.emit b (Insn.Alu_imm (Insn.Div, 5, 64));
  Builder.emit b (Insn.Alu_imm (Insn.Mod, 5, 64));
  Builder.emit b (Insn.St_ctxt (f + k + 1, 5));
  Builder.emit b (Insn.St_ctxt (Hooks.key_last_page, 1));
  Builder.emit b (Insn.Mov (0, 3));
  Builder.emit b Insn.Exit;
  Builder.finish b ()

(* Prediction action (installed at swap_cluster_readahead): vector-load the
   feature block, then run a bounded REP loop that consults the in-kernel
   tree once per prediction horizon (the horizon is the last feature slot),
   writing the predicted delta classes into the result keys of the
   execution context. *)
let build_predict_program params =
  let open Rmt in
  let nf = n_features params in
  let b = Builder.create ~name:"pf_predict" ~vmem_size:nf () in
  let _slot = Builder.add_model b ~n_features:nf in
  Builder.add_capability b (Program.Guarded { lo = 0; hi = n_delta_classes - 1 });
  Builder.emit b (Insn.Vec_ld_ctxt (0, Hooks.key_feature_base, nf - 1));
  Builder.emit b (Insn.Ld_imm (7, 1)); (* horizon *)
  Builder.emit b (Insn.Ld_imm (8, result_key_base));
  (* loop body: 5 instructions *)
  Builder.emit b (Insn.Rep (depth, 5));
  Builder.emit b (Insn.Vec_st_reg (nf - 1, 7));
  Builder.emit b (Insn.Call_ml (0, 0, nf));
  Builder.emit b (Insn.St_ctxt_r (8, 0));
  Builder.emit b (Insn.Alu_imm (Insn.Add, 7, 1));
  Builder.emit b (Insn.Alu_imm (Insn.Add, 8, 1));
  Builder.emit b (Insn.Ld_imm (0, depth));
  Builder.emit b Insn.Exit;
  Builder.finish b ()

let empty_tree params =
  let ds =
    Kml.Dataset.create ~n_features:(n_features params) ~n_classes:n_delta_classes
  in
  Kml.Decision_tree.train ds

let create ?(params = default_params) ?(engine = Rmt.Vm.Jit_compiled) ?(seed = 42) () =
  if params.history < 1 then invalid_arg "Prefetch_rmt.create: history must be positive";
  if params.window_capacity < 1 then
    invalid_arg "Prefetch_rmt.create: window_capacity must be positive";
  let control = Rmt.Control.create ~engine ~seed () in
  let model = Rmt.Model_store.Tree (empty_tree params) in
  let (_ : Rmt.Model_store.handle) = Rmt.Control.register_model control ~name:"pf_tree" model in
  let collect_vm =
    match Rmt.Control.install control (build_collect_program params) with
    | Ok vm -> vm
    | Error e -> invalid_arg ("Prefetch_rmt: collect program rejected: " ^ e)
  in
  let predict_vm =
    match
      Rmt.Control.install control ~model_names:[ "pf_tree" ] (build_predict_program params)
    with
    | Ok vm -> vm
    | Error e -> invalid_arg ("Prefetch_rmt: predict program rejected: " ^ e)
  in
  let collect_table =
    Rmt.Control.create_table control ~name:"page_access_tab" ~match_keys:[| Hooks.key_pid |]
      ~default:(Rmt.Table.Const 0)
  in
  let predict_table =
    Rmt.Control.create_table control ~name:"page_prefetch_tab" ~match_keys:[| Hooks.key_pid |]
      ~default:(Rmt.Table.Const 0)
  in
  Rmt.Control.attach control ~hook:Hooks.lookup_swap_cache collect_table;
  Rmt.Control.attach control ~hook:Hooks.swap_cluster_readahead predict_table;
  (* Failsafe wiring (DESIGN.md section 12): both hooks share one breaker
     — a fault in either stage degrades the whole prefetch pipeline to
     the stock readahead heuristic. *)
  let breaker =
    Rmt.Control.protect control ~hook:Hooks.lookup_swap_cache
      ~programs:[ "pf_collect" ]
      ~fallback:(fun _ -> collect_fallback_marker)
      ()
  in
  let (_ : Rmt.Breaker.t) =
    Rmt.Control.protect control ~hook:Hooks.swap_cluster_readahead ~breaker
      ~programs:[ "pf_predict" ]
      ~fallback:(fun _ -> predict_fallback_marker)
      ()
  in
  let t =
    { params;
      control;
      collect_table;
      predict_table;
      collect_vm;
      predict_vm;
      breaker;
      stock = Ksim.Readahead.create ();
      fallback_accesses = 0;
      pids = Hashtbl.create 8;
      window = [||];
      window_delta = [||];
      window_label = [||];
      workspace =
        Kml.Decision_tree.workspace ~n_features:(n_features params) ~n_classes:n_delta_classes
          ~capacity:0;
      window_head = 0;
      window_len = 0;
      predictions = Array.make depth 0;
      class_deltas = Array.make n_delta_classes 0;
      model_ready = false;
      tree = None;
      now_ns = 0;
      limiter =
        Rmt.Rate_limit.create ~tokens_per_sec:pages_per_sec_limit ~burst:256 ~now:0;
      accesses = 0;
      retrains = 0;
      training_samples = 0;
      since_retrain = 0;
      predictions_checked = 0;
      predictions_correct = 0;
      recent_checked = 0;
      recent_correct = 0;
      current_depth = depth;
      online = true }
  in
  Rmt.Control.set_clock control (fun () -> t.now_ns);
  t

let control t = t.control

let pid_state t pid =
  match Hashtbl.find t.pids pid with
  | st -> st
  | exception Not_found ->
    let nf = n_features t.params in
    if Array.length t.window = 0 then begin
      let cap = t.params.window_capacity in
      t.window <- Array.make (cap * nf) 0;
      t.window_delta <- Array.make cap 0;
      t.window_label <- Array.make cap 0;
      t.workspace <-
        Kml.Decision_tree.workspace ~n_features:nf ~n_classes:n_delta_classes ~capacity:cap
    end;
    let st =
      { ctxt = Rmt.Ctxt.create ();
        predicted_next_page = 0;
        has_prediction = false;
        seen_first = false;
        pending = Array.make (depth * nf) 0;
        pending_page = Array.make depth 0;
        pending_head = 0;
        pending_len = 0 }
    in
    Hashtbl.replace t.pids pid st;
    (* Control-plane entry insertion for a newly seen process (§3.1: "new
       entries are inserted when applications are created"). *)
    let pattern = [| Rmt.Table.Eq pid |] in
    let (_ : Rmt.Table.entry_id) =
      Rmt.Table.insert t.collect_table ~patterns:pattern (Rmt.Table.Run t.collect_vm)
    in
    let (_ : Rmt.Table.entry_id) =
      Rmt.Table.insert t.predict_table ~patterns:pattern (Rmt.Table.Run t.predict_vm)
    in
    st

(* Labels pending row [row] of [st] with [horizon] and [cum_delta] and
   pushes it into the training window, overwriting the oldest sample when
   full.  Up to eight rows an access: the copy is a loop because [Array.blit]
   into the major-heap window takes the write barrier for every word, and
   the head wraps with a compare, not a division (DESIGN.md section 8). *)
let window_push t st row ~horizon ~cum_delta =
  let nf = n_features t.params in
  let window = t.window and pending = st.pending in
  let dst = t.window_head * nf and src = row * nf in
  for i = 0 to nf - 2 do
    window.(dst + i) <- pending.(src + i)
  done;
  window.(dst + nf - 1) <- horizon;
  t.window_delta.(t.window_head) <- cum_delta;
  let head = t.window_head + 1 in
  t.window_head <- (if head = t.params.window_capacity then 0 else head);
  if t.window_len < t.params.window_capacity then t.window_len <- t.window_len + 1;
  t.training_samples <- t.training_samples + 1

(* Calls [fn] on each window row, oldest first. *)
let window_iter t fn =
  let cap = t.params.window_capacity in
  let start = (t.window_head - t.window_len + cap) mod cap in
  for i = 0 to t.window_len - 1 do
    fn ((start + i) mod cap)
  done

(* Ranks the [n_delta_classes - 1] most frequent deltas of [freq] into
   [class_deltas.(1..)], most frequent first.  Equal counts rank in reverse
   [Hashtbl.iter] order, the order a stable sort of the list that
   [Hashtbl.fold] conses up gives them: each delta is inserted ahead of
   every ranked delta whose count it reaches. *)
let rank_classes freq class_deltas =
  let counts = Array.make n_delta_classes 0 and ranked = ref 0 in
  Hashtbl.iter
    (fun delta count ->
      let pos = ref 1 in
      while !pos <= !ranked && counts.(!pos) > count do
        incr pos
      done;
      if !pos < n_delta_classes then begin
        for i = min !ranked (n_delta_classes - 2) downto !pos do
          class_deltas.(i + 1) <- class_deltas.(i);
          counts.(i + 1) <- counts.(i)
        done;
        class_deltas.(!pos) <- delta;
        counts.(!pos) <- count;
        ranked := min (!ranked + 1) (n_delta_classes - 1)
      end)
    freq

(* Rebuild the delta-class table from the window (most frequent cumulative
   deltas get classes 1..C-1; 0 and the long tail map to class 0 = no
   prefetch), then retrain the tree and swap it into the model store.  The
   frequencies are counted over the window oldest first, which fixes the
   [Hashtbl] iteration order that breaks ties between equal counts.  The
   tree trains on the ring in physical row order, which gives the same
   tree (see the tie-break contract of [Decision_tree.train_rows]). *)
let retrain t =
  let freq = Hashtbl.create 64 in
  window_iter t (fun r ->
      let cum_delta = t.window_delta.(r) in
      if cum_delta <> 0 then begin
        let count = match Hashtbl.find freq cum_delta with c -> c | exception Not_found -> 0 in
        Hashtbl.replace freq cum_delta (count + 1)
      end);
  let n_classes = n_delta_classes in
  let class_deltas = Array.make n_classes 0 in
  rank_classes freq class_deltas;
  let class_of = Hashtbl.create 64 in
  for c = 1 to n_classes - 1 do
    if class_deltas.(c) <> 0 then Hashtbl.replace class_of class_deltas.(c) c
  done;
  (* Until the ring first wraps, its rows are [0, window_len). *)
  let n = t.window_len in
  for r = 0 to n - 1 do
    t.window_label.(r) <-
      (match Hashtbl.find class_of t.window_delta.(r) with c -> c | exception Not_found -> 0)
  done;
  let tree =
    Kml.Decision_tree.train_rows t.workspace ~params:tree_params ~rows:t.window
      ~labels:t.window_label ~n
  in
  (* Conservative prefetching: leaves whose majority class is not dominant
     enough are demoted to class 0 (no prefetch), trading a little coverage
     for much better accuracy — the "be more conservative in prefetching"
     adjustment of §3.1. *)
  let tree =
    Kml.Decision_tree.relabel_leaves tree (fun ~label ~counts ->
        let total = Array.fold_left ( + ) 0 counts in
        if total > 0 && 100 * counts.(label) / total < min_leaf_purity_pct then 0 else label)
  in
  (* Model admission: the verifier's cost budget also gates swapped-in
     models; an oversized tree is rejected and the old model kept. *)
  if Kml.Model_cost.within (Kml.Model_cost.of_tree tree) Kml.Model_cost.default_budget then begin
    match Rmt.Control.update_model t.control ~name:"pf_tree" (Rmt.Model_store.Tree tree) with
    | Ok () ->
      t.class_deltas <- class_deltas;
      t.tree <- Some tree;
      t.model_ready <- true;
      t.retrains <- t.retrains + 1
    | Error _ -> ()
  end

let adaptive_update t =
  if t.recent_checked >= 256 then begin
    let rate = float_of_int t.recent_correct /. float_of_int t.recent_checked in
    if rate < 0.3 then t.current_depth <- 1
    else if rate > 0.6 then t.current_depth <- depth;
    t.recent_checked <- 0;
    t.recent_correct <- 0
  end

(* Whether [x] is among [buf.(i)..buf.(n - 1)]. *)
let rec mem_from buf n x i = i < n && (buf.(i) = x || mem_from buf n x (i + 1))

(* [buf.(0)..buf.(i)] as a list. *)
let rec list_upto buf i acc = if i < 0 then acc else list_upto buf (i - 1) (buf.(i) :: acc)

(* Decode the predicted delta classes into prefetch targets: distinct, in
   horizon order, as many as the rate limiter grants. *)
let decode_predictions t st ~page ~now =
  let buf = t.predictions in
  let n = ref 0 in
  for j = 0 to t.current_depth - 1 do
    let cls = Rmt.Ctxt.get st.ctxt (result_key_base + j) in
    if cls > 0 && cls < Array.length t.class_deltas then begin
      let delta = t.class_deltas.(cls) in
      if delta <> 0 then begin
        let target = page + delta in
        if j = 0 then begin
          st.predicted_next_page <- target;
          st.has_prediction <- true
        end;
        if not (mem_from buf !n target 0) then begin
          buf.(!n) <- target;
          incr n
        end
      end
    end
  done;
  let granted = Rmt.Rate_limit.grant t.limiter ~now ~request:!n in
  list_upto buf (min granted !n - 1) []

(* One access served by the stock heuristic instead of the learned path;
   the learning state the learned path could not maintain is dropped so it
   restarts cleanly when the breaker re-closes. *)
let stock_delegate t st ~pid ~page ~hit ~now =
  t.fallback_accesses <- t.fallback_accesses + 1;
  st.has_prediction <- false;
  st.pending_len <- 0;
  st.seen_first <- false;
  t.stock.Ksim.Prefetcher.on_access ~pid ~page ~hit ~now

let on_access t ~pid ~page ~hit ~now =
  t.now_ns <- now;
  t.accesses <- t.accesses + 1;
  let st = pid_state t pid in
  Rmt.Ctxt.set st.ctxt Hooks.key_pid pid;
  Rmt.Ctxt.set st.ctxt Hooks.key_page page;
  if not st.seen_first then begin
    st.seen_first <- true;
    Rmt.Ctxt.set st.ctxt Hooks.key_last_page page
  end;
  (* Score the previous one-step-ahead prediction (accuracy monitor). *)
  if st.has_prediction then begin
    t.predictions_checked <- t.predictions_checked + 1;
    t.recent_checked <- t.recent_checked + 1;
    if st.predicted_next_page = page then begin
      t.predictions_correct <- t.predictions_correct + 1;
      t.recent_correct <- t.recent_correct + 1
    end;
    st.has_prediction <- false
  end;
  adaptive_update t;
  (* Label pending feature snapshots, newest first, with this access's
     cumulative deltas. *)
  for age = 0 to st.pending_len - 1 do
    let row = (st.pending_head - 1 - age + depth) mod depth in
    window_push t st row ~horizon:(age + 1) ~cum_delta:(page - st.pending_page.(row))
  done;
  (* Data collection through the RMT pipeline. *)
  match Rmt.Control.fire t.control ~hook:Hooks.lookup_swap_cache ~ctxt:st.ctxt with
  | Some r when r = collect_fallback_marker ->
    (* Breaker open (or the collect program trapped): the learned path is
       out of service.  Serve the stock readahead heuristic and drop the
       per-process learning state it can no longer keep fresh; [seen_first]
       forces a clean delta-history restart on recovery. *)
    stock_delegate t st ~pid ~page ~hit ~now
  | Some _ | None ->
  (* Snapshot the feature block into the pending ring, over its oldest
     row when full.  Every key is read, the horizon slot too: the
     lean-monitoring ablation counts these reads. *)
  let nf = n_features t.params in
  let row = st.pending_head in
  for i = 0 to nf - 1 do
    st.pending.((row * nf) + i) <- Rmt.Ctxt.get st.ctxt (Hooks.key_feature_base + i)
  done;
  st.pending_page.(row) <- page;
  st.pending_head <- (row + 1) mod depth;
  if st.pending_len < depth then st.pending_len <- st.pending_len + 1;
  t.since_retrain <- t.since_retrain + 1;
  if t.online && t.since_retrain >= t.params.retrain_period && t.window_len >= 256 then begin
    t.since_retrain <- 0;
    retrain t
  end;
  if not t.model_ready then []
  else begin
    match Rmt.Control.fire t.control ~hook:Hooks.swap_cluster_readahead ~ctxt:st.ctxt with
    | None -> []
    | Some r when r = predict_fallback_marker -> stock_delegate t st ~pid ~page ~hit ~now
    | Some _depth_marker -> decode_predictions t st ~page ~now
  end

let reset t =
  Hashtbl.reset t.pids;
  Rmt.Breaker.reset t.breaker;
  t.stock.Ksim.Prefetcher.reset ();
  t.fallback_accesses <- 0;
  Rmt.Rate_limit.reset t.limiter ~now:0;
  Rmt.Table.clear t.collect_table;
  Rmt.Table.clear t.predict_table;
  t.window_head <- 0;
  t.window_len <- 0;
  t.class_deltas <- Array.make n_delta_classes 0;
  t.model_ready <- false;
  t.tree <- None;
  ignore
    (Rmt.Control.update_model t.control ~name:"pf_tree"
       (Rmt.Model_store.Tree (empty_tree t.params)));
  t.accesses <- 0;
  t.retrains <- 0;
  t.training_samples <- 0;
  t.since_retrain <- 0;
  t.predictions_checked <- 0;
  t.predictions_correct <- 0;
  t.recent_checked <- 0;
  t.recent_correct <- 0;
  t.current_depth <- depth;
  t.online <- true

let set_online t enabled = t.online <- enabled

let prefetcher t =
  { Ksim.Prefetcher.name = "rmt-ml";
    on_access = (fun ~pid ~page ~hit ~now -> on_access t ~pid ~page ~hit ~now);
    reset = (fun () -> reset t) }

type stats = {
  accesses : int;
  retrains : int;
  training_samples : int;
  model_invocations : int;
  vm_invocations : int;
  vm_steps : int;
  predictions_checked : int;
  predictions_correct : int;
  current_depth : int;
  throttled_pages : int;
  ctxt_reads : int;
  fallback_accesses : int;
  breaker_trips : int;
}

let stats t =
  let model_invocations =
    match Rmt.Model_store.find (Rmt.Control.models t.control) "pf_tree" with
    | Some h -> Rmt.Model_store.invocations (Rmt.Control.models t.control) h
    | None -> 0
  in
  let ctxt_reads = Hashtbl.fold (fun _ st acc -> acc + Rmt.Ctxt.reads st.ctxt) t.pids 0 in
  { accesses = t.accesses;
    retrains = t.retrains;
    training_samples = t.training_samples;
    model_invocations;
    vm_invocations = Rmt.Vm.invocations t.collect_vm + Rmt.Vm.invocations t.predict_vm;
    vm_steps = Rmt.Vm.total_steps t.collect_vm + Rmt.Vm.total_steps t.predict_vm;
    predictions_checked = t.predictions_checked;
    predictions_correct = t.predictions_correct;
    current_depth = t.current_depth;
    throttled_pages = Rmt.Rate_limit.throttled t.limiter;
    ctxt_reads;
    fallback_accesses = t.fallback_accesses;
    breaker_trips = Rmt.Breaker.opens t.breaker }

let tree t = t.tree
let breaker t = t.breaker
